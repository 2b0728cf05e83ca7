"""Tests for the Landau-averaged potentials and the y/mu change of variables."""

import math

import numpy as np
import pytest

from landaucrit import potentials as pot
from landaucrit.potentials import PotentialSpec, a_ell_grid, mu_bound_constant, z_of_y

from _reference import (a_ell, a_ell_direct, a_scaled_quadrature, far_tail, scaling_check,
                        y_of_z)

SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)

# Frozen high-precision quadrature references (30-digit arithmetic, defining
# integral evaluated directly; independent of every code path under test).
A_SCALED_REF = {
    (0, 0.8): 0.731313690592240446,
    (1, 0.8): 0.53163646430660328,
    (2, 0.8): 0.430675704435654407,
    (3, 0.8): 0.369665568082613219,
    (4, 0.8): 0.328338182980529862,
    (5, 0.8): 0.29814931732901021,
    (0, 3.7): 0.253777637406793576,
    (0, 100.0): 0.00999900029985010491,
    (2, 100.0): 0.00999700179850157302,
    (3, 12.0): 0.0811313575953852921,
}
Y_OF_30 = 4.03693343743203323
Y_OF_3_7 = 1.97675769368210344


class TestAEll:
    def test_value_at_origin_unit_field(self):
        got = a_ell(PotentialSpec(0.5, 1.0), 0.0)
        assert got.value == pytest.approx(SQRT_PI_OVER_2, rel=1e-10)
        assert got.regime == "quadrature"

    def test_value_at_origin_scales_like_sqrt_b(self):
        got = a_ell(PotentialSpec(0.5, 4.0), 0.0)
        assert got.value == pytest.approx(2.0 * SQRT_PI_OVER_2, rel=1e-10)

    def test_large_z_inverse_law(self):
        # a_0(z;1) = (1/z)(1 + eps) with |eps| < 2e-4 at z = 100
        got = a_ell(PotentialSpec(0.5, 1.0), 100.0)
        eps = 100.0 * got.value - 1.0
        assert abs(eps) < 2e-4
        assert got.regime == "asymptotic"
        assert got.value == pytest.approx(A_SCALED_REF[(0, 100.0)], rel=1e-12)

    @pytest.mark.parametrize("key", sorted(A_SCALED_REF))
    def test_frozen_references(self, key):
        ell, zeta = key
        got = a_ell(PotentialSpec(0.5, 1.0, ell=ell), zeta)
        assert got.value == pytest.approx(A_SCALED_REF[key], rel=1e-12)

    def test_evenness_exact(self):
        spec = PotentialSpec(0.3, 2.7, ell=1)
        for z in [0.4, 3.0, 77.0]:
            assert a_ell(spec, z).value == a_ell(spec, -z).value

    def test_global_maximum_at_origin(self):
        spec = PotentialSpec(0.5, 2.0)
        peak = a_ell(spec, 0.0).value
        assert peak == pytest.approx(math.sqrt(math.pi * spec.B / 2.0), rel=1e-12)
        zs = np.linspace(-40.0, 40.0, 101)
        vals = a_ell_grid(spec, zs)
        assert np.all(vals <= peak * (1 + 1e-14))

    def test_monotone_in_ell(self):
        # a_ell <= a_(ell-1) pointwise, ell = 1..5, several fields
        zs = np.linspace(-20.0, 20.0, 50)
        for B in (0.5, 1.0, 10.0):
            prev = a_ell_grid(PotentialSpec(0.5, B, ell=0), zs)
            for ell in range(1, 6):
                cur = a_ell_grid(PotentialSpec(0.5, B, ell=ell), zs)
                assert np.all(cur <= prev + 1e-12)
                prev = cur

    def test_regime_agreement_at_switch(self):
        for ell in range(6):
            lo = a_scaled_quadrature(ell, pot.SWITCH_RADIUS)
            hi = pot._a_scaled_asymptotic(ell, pot.SWITCH_RADIUS)
            assert abs(lo - hi) / lo < 1e-10

    def test_grid_matches_scalar(self):
        zs = np.array([0.0, 0.13, 0.8, 4.2, 29.9, 31.0, 500.0])
        for ell in (0, 1, 4):
            spec = PotentialSpec(0.7, 3.3, ell=ell)
            grid = a_ell_grid(spec, zs)
            ref = np.array([a_ell(spec, z).value for z in zs])
            assert np.max(np.abs(grid - ref) / ref) < 1e-11

    def test_chebyshev_fit_matches_panels(self):
        # the fit inside the switch radius against the Gauss-Legendre panels
        # it interpolates, on a grid far denser than its nodes
        zetas = np.linspace(0.0, pot.SWITCH_RADIUS, 20001)
        for ell in (1, 2, 3, 5):
            ref = pot._a_scaled_grid_gl(ell, zetas)
            assert np.max(np.abs(pot.a_scaled_vec(ell, zetas) - ref) / ref) <= 2e-13

    def test_positive_and_bounded_by_center(self):
        spec = PotentialSpec(0.9, 0.7, ell=2)
        center = a_ell(spec, 0.0).value
        for z in [1e-3, 1.0, 60.0]:
            v = a_ell(spec, z).value
            assert 0.0 < v <= center

    def test_input_validation(self):
        with pytest.raises(ValueError):
            PotentialSpec(nu=1.2, B=1.0)
        with pytest.raises(ValueError):
            PotentialSpec(nu=0.5, B=-1.0)
        with pytest.raises(ValueError):
            PotentialSpec(nu=0.5, B=1.0, ell=-1)
        with pytest.raises(ValueError):
            a_ell(PotentialSpec(0.5, 1.0), math.nan)
        with pytest.raises(ValueError):
            a_ell(PotentialSpec(0.5, 1.0), math.inf)


class TestScalingIdentity:
    def test_identity_at_unit_field(self):
        assert scaling_check(1.0, 0.0) < 1e-14

    @pytest.mark.parametrize("B,z", [(17.3, 2.4), (0.1, -50.0)])
    def test_spec_points(self, B, z):
        assert scaling_check(B, z) < 1e-10

    def test_random_panel(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            B = 10.0 ** rng.uniform(-1.0, 2.0)
            z = rng.uniform(-50.0, 50.0)
            assert scaling_check(B, z) < 1e-10

    def test_direct_matches_scaled_for_higher_ell(self):
        spec = PotentialSpec(0.5, 6.1, ell=3)
        for z in (0.0, 1.7):
            assert a_ell_direct(spec, z) == pytest.approx(a_ell(spec, z).value, rel=1e-11)


class TestVariableMap:
    def test_origin(self):
        m = y_of_z(0.0)
        assert m.y == 0.0
        assert m.mu_at_y == pytest.approx(1.0 / SQRT_PI_OVER_2, rel=1e-13)

    def test_frozen_forward_values(self):
        assert y_of_z(3.7).y == pytest.approx(Y_OF_3_7, rel=1e-12)
        assert y_of_z(30.0).y == pytest.approx(Y_OF_30, rel=1e-12)

    def test_odd_and_increasing(self):
        zs = [0.2, 1.0, 5.0, 29.0, 60.0, 1e4]
        ys = [y_of_z(z).y for z in zs]
        assert all(b > a for a, b in zip(ys, ys[1:]))
        for z, y in zip(zs, ys):
            assert y_of_z(-z).y == -y

    def test_roundtrip(self):
        for z in [3.7, 0.05, 12.0, 29.99, 31.0, 1e3, -7.7]:
            back = z_of_y(y_of_z(z).y).z
            assert back == pytest.approx(z, rel=1e-8)
        rng = np.random.default_rng(7)
        for z in rng.uniform(-80.0, 80.0, 25):
            assert z_of_y(y_of_z(z).y).z == pytest.approx(z, rel=1e-8)

    def test_mu_times_a0_is_one(self):
        rng = np.random.default_rng(11)
        for z in rng.uniform(-60.0, 60.0, 30):
            m = y_of_z(z)
            a = a_ell(PotentialSpec(0.5, 1.0), z).value
            assert m.mu_at_y * a == pytest.approx(1.0, abs=1e-8)

    def test_far_field_log_representation(self):
        m = z_of_y(200.0)
        assert math.isfinite(m.mu_at_y)
        assert abs(m.log_mu - 200.0) < 2.0  # log mu(y) = y + O(1)
        m400 = z_of_y(400.0)
        assert math.isfinite(m400.log_abs_z) and math.isfinite(m400.log_mu)
        assert abs(m400.log_mu - 400.0) < 2.0

    @pytest.mark.parametrize("log_z", [10.0, 40.0, 100.0, 185.0, 398.0])
    def test_far_tail_against_mpmath(self, log_z):
        pytest.importorskip("mpmath")
        y, log_mu = far_tail(log_z)
        assert abs(float(pot.log_mu_of_y(np.array([y]))[0]) - log_mu) <= 1e-12
        m = z_of_y(y)
        assert abs(m.log_abs_z - log_z) <= 1e-12
        assert abs(m.log_mu - log_mu) <= 1e-12

    def test_log_mu_consistent_across_branches(self):
        y0 = pot._y_at_switch()
        below = float(pot.log_mu_of_y(np.array([y0 * (1 - 1e-12)]))[0])
        above = float(pot.log_mu_of_y(np.array([y0 * (1 + 1e-12)]))[0])
        assert abs(below - above) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            y_of_z(math.inf)
        with pytest.raises(ValueError):
            z_of_y(math.nan)


class TestMuBound:
    def test_lower_bound_at_origin(self):
        assert mu_bound_constant() >= 1.0 / SQRT_PI_OVER_2 - 1e-15

    def test_grid_supremum(self):
        ys = np.linspace(-50.0, 50.0, 1001)
        c = mu_bound_constant()
        vals = np.exp(pot.log_mu_of_y(np.abs(ys)) - np.abs(ys))
        assert np.all(vals <= c + 1e-12)

    def test_finite_and_small(self):
        assert mu_bound_constant() < 10.0
