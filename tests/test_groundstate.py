"""Tests for the nonlinear fixed point defining the lowest level."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.sparse import diags
from scipy.sparse.linalg import eigsh
from scipy.special import erfcx

from landaucrit import groundstate, sturm_liouville
from landaucrit.critical_field import critical_field_direct
from landaucrit.errors import AccuracyError
from landaucrit.groundstate import FixedPointResult, ground_state_lambda, ground_state_per_ell
from landaucrit.potentials import PotentialSpec, a_ell_grid

from _reference import T_of_lambda


# --- independent oracle -----------------------------------------------------
# Eigenvalue extraction by ARPACK shift-invert Lanczos on the assembled
# sparse matrix: a different library and algorithm than the package's
# LAPACK Sturm-sequence bisection path.

def _a0B(z, B):
    return math.sqrt(B) * math.sqrt(math.pi / 2.0) * erfcx(np.abs(math.sqrt(B) * z) / np.sqrt(2.0))


def oracle_lowest_eig(diag, offdiag):
    A = diags([offdiag, diag, offdiag], [-1, 0, 1], format="csc")
    # Gershgorin lower bound puts the shift strictly below the spectrum
    row = diag.copy()
    row[:-1] -= np.abs(offdiag)
    row[1:] -= np.abs(offdiag)
    sigma = float(row.min()) - 1.0
    w = eigsh(A, k=1, sigma=sigma, which="LM", return_eigenvectors=False, tol=1e-12)
    return float(w[0])


def oracle_T(nu, B, lam, L, n, ell=0):
    h = 2.0 * L / (n + 1)
    nodes = -L + h * np.arange(1, n + 1)
    mids = -L + h * (np.arange(n + 1) + 0.5)
    if ell == 0:
        a_nodes = _a0B(nodes, B)
        a_mids = _a0B(mids, B)
    else:
        a_nodes = a_ell_grid(PotentialSpec(nu, B, ell), nodes)
        a_mids = a_ell_grid(PotentialSpec(nu, B, ell), mids)
    p = 1.0 / (1.0 + lam + nu * a_mids)
    q = 1.0 - nu * a_nodes
    diag = (p[:-1] + p[1:]) / h**2 + q
    offdiag = -p[1:-1] / h**2
    return oracle_lowest_eig(diag, offdiag)


def record_eigensolves(monkeypatch):
    """``eigvals_only`` of every eigen-solve made through sturm_liouville from now on."""
    calls = []
    real = sturm_liouville.eigh_tridiagonal

    def recording(*args, **kwargs):
        calls.append(kwargs.get("eigvals_only", False))
        return real(*args, **kwargs)

    monkeypatch.setattr(sturm_liouville, "eigh_tridiagonal", recording)
    return calls


def oracle_lambda(nu, B, L=60.0, ell=0):
    """Fixed-point root on two fine grids, Richardson-extrapolated."""
    roots = []
    for n in (12001, 24003):
        roots.append(brentq(lambda x: oracle_T(nu, B, x, L, n, ell) - x,
                            -1.0, 1.0, xtol=1e-10))
    return (4.0 * roots[1] - roots[0]) / 3.0


class TestTOfLambda:
    def test_zero_coupling_limit(self):
        # potential vanishes: T -> 1 for every lambda
        spec = PotentialSpec(nu=1e-3, B=1.0)
        for lam in (-0.5, 0.0, 0.5):
            t = T_of_lambda(spec, lam, L=3000.0, n=120001, stabilize_domain=False)
            assert 0.97 < t <= 1.0 + 1e-9

    def test_against_dense_oracle_at_fixed_lambda(self):
        spec = PotentialSpec(0.5, 1.0)
        got = T_of_lambda(spec, 0.0, L=60.0, n=24001, stabilize_domain=False)
        want = oracle_T(0.5, 1.0, 0.0, 60.0, 24003)
        assert got == pytest.approx(want, abs=1e-6)

    def test_monotone_nonincreasing_in_lambda(self):
        spec = PotentialSpec(0.5, 1.0)
        kw = dict(L=60.0, n=4801, stabilize_domain=False, richardson=False)
        assert T_of_lambda(spec, 0.5, **kw) <= T_of_lambda(spec, -0.5, **kw)

    def test_lambda_below_minus_one_rejected(self):
        with pytest.raises(ValueError):
            T_of_lambda(PotentialSpec(0.5, 1.0), -1.5)


class TestGroundState:
    def test_weak_coupling_sits_near_one(self):
        res = ground_state_lambda(PotentialSpec(0.05, 0.5))
        assert 0.9 < res.lam < 1.0
        assert not res.degenerate
        assert res.residual <= 1e-10

    @pytest.mark.parametrize("nu,B", [(0.3, 5.0), (0.5, 1.0), (0.5, 10.0)])
    def test_against_independent_oracle(self, nu, B):
        got = ground_state_lambda(PotentialSpec(nu, B)).lam
        want = oracle_lambda(nu, B)
        assert got == pytest.approx(want, abs=1e-4)

    def test_monotone_in_field(self):
        lams = [ground_state_lambda(PotentialSpec(0.5, B)).lam
                for B in (0.5, 1.0, 3.0, 10.0, 30.0)]
        assert all(b <= a + 1e-8 for a, b in zip(lams, lams[1:]))

    def test_monotone_in_coupling(self):
        lams = [ground_state_lambda(PotentialSpec(nu, 1.0)).lam
                for nu in (0.1, 0.25, 0.4, 0.55, 0.7)]
        assert all(b <= a + 1e-8 for a, b in zip(lams, lams[1:]))

    def test_range_and_diagnostics(self):
        res = ground_state_lambda(PotentialSpec(0.5, 1.0))
        assert -1.0 <= res.lam <= 1.0
        assert res.iterations > 0
        assert res.grid == (res.L, res.n)

    def test_grid_robustness(self):
        # halving the t-step moves lambda by < 1e-6
        spec = PotentialSpec(0.5, 1.0)
        a = ground_state_lambda(spec).lam
        b = ground_state_lambda(spec, h=0.0125).lam
        assert abs(a - b) < 1e-6

    def test_domain_doubling_keeps_spacing_and_odd_n(self, monkeypatch):
        # every domain solves on n = odd_points(T, h) and 2n + 1 points; the
        # next doubles z, T -> asinh(2 sinh T), at the same step h
        grids = []

        class RecordingGrid(groundstate._Grid):
            def __init__(self, spec, T, n):
                grids.append((T, n))
                super().__init__(spec, T, n)

        monkeypatch.setattr(groundstate, "_Grid", RecordingGrid)
        res = ground_state_lambda(PotentialSpec(0.5, 1.0), h=0.05)
        assert len(grids) >= 4 and len(grids) == res.iterations - 1
        coarse, fine = grids[0::2], grids[1::2]
        for (T, n), (T_fine, n_fine) in zip(coarse, fine):
            assert n == sturm_liouville.odd_points(T, 0.05) and n % 2 == 1
            assert (T_fine, n_fine) == (T, 2 * n + 1)
        for (T0, _), (T1, _) in zip(coarse, coarse[1:]):
            assert T1 == pytest.approx(math.asinh(2.0 * math.sinh(T0)), rel=1e-15)
        assert res.grid == pytest.approx((math.sinh(fine[-1][0]), fine[-1][1]), rel=1e-15)

    @pytest.mark.parametrize("forced,degenerate", [
        ((-1.0001, -0.99999), False),  # coarse level below -1, Richardson above
        ((-0.9999, -0.99998), True),   # both levels above -1, Richardson below
    ], ids=["coarse_below", "richardson_below"])
    def test_degeneracy_is_decided_by_the_extrapolated_level(self, monkeypatch,
                                                            forced, degenerate):
        # forced levels on the first domain's two grids; later grids are real
        grids = []

        class RecordingGrid(groundstate._Grid):
            def __init__(self, spec, T, n):
                grids.append((T, n))
                self.order = len(grids)
                super().__init__(spec, T, n)

            def level(self):
                if self.order <= 2:
                    return forced[self.order - 1]
                return super().level()

        monkeypatch.setattr(groundstate, "_Grid", RecordingGrid)
        res = ground_state_lambda(PotentialSpec(0.5, 1.0))
        assert res.degenerate == degenerate
        if degenerate:
            assert res.lam == -1.0 and res.iterations == len(grids) == 2
        else:
            # one domain more than the unforced call, within DOMAIN_TOL of it
            assert res.lam == pytest.approx(ground_state_lambda(PotentialSpec(0.5, 1.0)).lam,
                                            abs=groundstate.DOMAIN_TOL)

    def test_wrong_level_fails_the_residual_check(self, monkeypatch):
        # a level off by 1e-3 on every grid extrapolates and domain-doubles
        # like a true one; only |Phi| at the fine level exposes it
        class ShiftedGrid(groundstate._Grid):
            def level(self):
                return super().level() + 1e-3

        monkeypatch.setattr(groundstate, "_Grid", ShiftedGrid)
        with pytest.raises(AccuracyError):
            ground_state_lambda(PotentialSpec(0.5, 1.0))

    def test_eigensolve_count(self, monkeypatch):
        calls = record_eigensolves(monkeypatch)
        res = ground_state_lambda(PotentialSpec(0.3, 2.0))
        assert 0 < len(calls) == res.iterations <= 8

    def test_degenerate_call_is_one_domain(self, monkeypatch):
        # the extrapolated level of the first domain is <= -1: two level
        # solves and no T solve
        calls = record_eigensolves(monkeypatch)
        res = ground_state_lambda(PotentialSpec(0.85, 1e4))
        assert res.degenerate
        assert calls == [True, True]
        assert res.iterations == 2

    @pytest.mark.parametrize("nu,B,ell", [(0.3, 2.0, 0), (0.3, 2.0, 2), (0.65, 50.0, 0)])
    def test_level_matches_brentq_on_same_grid(self, nu, B, ell):
        # the root of Phi is eigenvalue n + 1 of the staggered Dirac matrix
        T = math.asinh(math.sqrt(B) * 60.0)
        grid = groundstate._Grid(PotentialSpec(nu, B, ell), T, sturm_liouville.odd_points(T, 0.025))
        level = grid.level()
        want = brentq(lambda lam: grid.phi(lam)[0], -1.0, 1.0, xtol=1e-13, rtol=8.9e-16)
        assert abs(level - want) <= 1e-10
        phi, floor = grid.phi(level)
        assert abs(phi) <= groundstate.RESIDUAL_FLOOR * floor

    def test_deep_supercritical_is_degenerate(self):
        res = ground_state_lambda(PotentialSpec(0.5, 1e6))
        assert res.degenerate
        assert res.lam == -1.0

    def test_degenerate_flag_implies_minus_one(self):
        res = ground_state_lambda(PotentialSpec(0.9, 500.0))
        if res.degenerate:
            assert res.lam == -1.0
        else:
            assert res.residual <= 1e-10


class TestPerEll:
    def test_ordering_and_minimum_at_zero(self):
        results = ground_state_per_ell(PotentialSpec(0.5, 1.0))
        lams = [r.lam for r in results]
        assert lams[0] <= lams[1] <= lams[2]
        assert lams[0] == min(lams)

    def test_ordering_against_oracle(self):
        spec = PotentialSpec(0.3, 5.0)
        got = [r.lam for r in ground_state_per_ell(spec, ells=(0, 1))]
        want = [oracle_lambda(0.3, 5.0, ell=ell) for ell in (0, 1)]
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-4)
        assert got[0] <= got[1]

    def test_weak_coupling_all_near_one(self):
        results = ground_state_per_ell(PotentialSpec(0.05, 0.5), ells=(0, 1, 2))
        for r in results:
            assert r.lam > 0.9


class TestResultInvariants:
    def test_result_is_frozen_dataclass(self):
        res = ground_state_lambda(PotentialSpec(0.5, 1.0))
        assert isinstance(res, FixedPointResult)
        with pytest.raises(AttributeError):
            res.lam = 0.0


class TestThreshold:
    """lambda_1 reaches -1 at the critical field B_L of the direct route."""

    @pytest.mark.parametrize("nu", [0.3, 0.65])
    def test_level_crosses_minus_one_at_the_critical_field(self, nu):
        B_L = math.exp(critical_field_direct(nu).log_BL)
        below = [ground_state_lambda(PotentialSpec(nu, r * B_L))
                 for r in (0.99, 0.999, 0.9995, 0.9999, 1.0 - 1e-6, 1.0 - 1e-8)]
        assert not any(res.degenerate for res in below)
        lams = [res.lam for res in below]
        assert all(b < a for a, b in zip(lams, lams[1:]))
        assert abs(ground_state_lambda(PotentialSpec(nu, B_L)).lam + 1.0) <= 1e-7
        for r in (1.0 + 1e-8, 1.0001):
            res = ground_state_lambda(PotentialSpec(nu, r * B_L))
            assert res.degenerate and res.lam == -1.0


class TestLargeField:
    @pytest.mark.parametrize("B", [1e3, 1e4, 1e6, 1e8])
    @pytest.mark.parametrize("nu", [0.1, 0.2, 0.3])
    def test_no_accuracy_or_truncation_error(self, nu, B):
        res = ground_state_lambda(PotentialSpec(nu, B))
        assert -1.0 <= res.lam < 1.0
        assert res.degenerate == (res.lam == -1.0)

    def test_half_step_agrees(self):
        spec = PotentialSpec(0.2, 1e4)
        a = ground_state_lambda(spec).lam
        b = ground_state_lambda(spec, h=0.0125).lam
        assert abs(a - b) <= 1e-8

    def test_wrong_level_fails_the_residual_check_at_large_field(self, monkeypatch):
        # the float floor grows with B, to eps max|diag| = 2.6e-7 here, still
        # far below a 1e-3 shift
        class ShiftedGrid(groundstate._Grid):
            def level(self):
                return super().level() + 1e-3

        monkeypatch.setattr(groundstate, "_Grid", ShiftedGrid)
        with pytest.raises(AccuracyError):
            ground_state_lambda(PotentialSpec(0.1, 1e8))
