"""Tests for zero-mode trial evaluations and certified field bounds."""

import math

import numpy as np
import pytest
import scipy.optimize
from scipy.integrate import quad
from scipy.interpolate import CubicSpline, PPoly

from landaucrit import trial_bounds
from landaucrit.critical_field import hhh_bounds
from landaucrit.errors import AccuracyError
from landaucrit.trial_bounds import (
    GaussianProfile,
    HermiteBasisProfile,
    PlateauProfile,
    RescaledProfile,
    TabulatedProfile,
    TrialState,
    certify_critical_upper_bound,
    check_sqrt5_inequality,
    evaluate_GB,
    w_scaled_vec,
)

from _reference import evaluate_GB_quad, evaluate_GB_two_pass, w_ell

# Frozen 25-digit quadrature references for the kinetic weight
W_SCALED_REF = {
    (1, 0.0): 1.8799712059732503,
    (3, 2.0): 3.418892628050839,
    (2, 31.0): 31.09657383022735,
}


def gaussian_closed_form(nu, B):
    return (2.0 * math.pi) ** -1.5 * math.sqrt(B) * (8.0 * math.pi / (3.0 * nu) - 4.0 * math.pi * nu)


def oracle_cases():
    """(nu, B, trial) on Hermite trials for ell 0..3, plateau shapes across
    the certificate's search box, the rescaled Gaussian and a spline."""
    rng = np.random.default_rng(100)
    zs = np.linspace(-3.0, 5.0, 40)
    return (
        [(nu, 1.0, TrialState(ell, HermiteBasisProfile(rng.standard_normal(8), scale=2.0)))
         for ell in range(4) for nu in (0.2, 0.6)]
        + [(0.85, 1.0, TrialState(0, PlateauProfile(10.0**lx, ratio * 10.0**lx)))
           for lx in (-0.5, 3.0, 6.5) for ratio in (0.1, 24.0)]
        + [(0.7, B, TrialState(0, RescaledProfile(GaussianProfile(1.0), B)))
           for B in (0.01, 1.0, 100.0)]
        + [(0.5, 1.0, TrialState(ell, TabulatedProfile(zs, np.cos(zs) ** 2 * np.exp(-zs**2 / 4.0))))
           for ell in (0, 2)]
    )


#: profiles of the bit-identity check against the two-pass evaluation
_ZS = np.linspace(-3.0, 5.0, 40)
ONE_PASS_BASES = {
    "gaussian": GaussianProfile(1.3),
    "plateau": PlateauProfile(1.5, 1.0),
    "hermite": HermiteBasisProfile(np.array([0.8, -0.5, 0.3, 0.2])),
    "tabulated": TabulatedProfile(_ZS, np.cos(_ZS) ** 2 * np.exp(-_ZS**2 / 4.0)),
}


class TestWeights:
    def test_weight_matches_absz_plus_a_for_ell0(self):
        zs = np.array([0.0, 0.5, 2.0, 40.0])
        from landaucrit.potentials import a0_scaled
        assert np.allclose(w_scaled_vec(0, zs), np.abs(zs) + a0_scaled(zs), rtol=1e-14)

    @pytest.mark.parametrize("key", sorted(W_SCALED_REF))
    def test_frozen_references(self, key):
        ell, zeta = key
        got = float(w_scaled_vec(ell, np.array([zeta]))[0])
        assert got == pytest.approx(W_SCALED_REF[key], rel=1e-12)

    @pytest.mark.parametrize("ell", range(5))
    def test_matches_quad_oracle(self, ell):
        # both sides of the switch radius, where a_ell changes from the
        # Chebyshev fit to the asymptotic series
        zetas = np.array([0.0, 1e-3, 0.7, 2.5, 9.0, 29.0, 30.0, 31.0, 80.0, 1e3, 1e4])
        got = w_scaled_vec(ell, zetas)
        want = np.array([w_ell(ell, zeta) for zeta in zetas])
        assert np.max(np.abs(got - want) / want) <= 1e-12


class TestProfiles:
    def test_gaussian_is_normalized(self):
        p = GaussianProfile(1.7)
        num = quad(lambda z: p.value(z) ** 2, -30.0, 30.0)[0]
        assert num == pytest.approx(1.0, rel=1e-10)
        assert p.norm_sq() == 1.0

    def test_plateau_norm_closed_form(self):
        p = PlateauProfile(2.0, 3.0)
        num = quad(lambda z: p.value(z) ** 2, -5.0, 5.0, points=[-2.0, 2.0])[0]
        assert num == pytest.approx(p.norm_sq(), rel=1e-10)

    @pytest.mark.parametrize("d,r", [(2.0, 3.0), (0.5, 0.25)])
    def test_plateau_kinetic_closed_form(self, d, r):
        # two ramps, each (1/r) ∫_0^1 s'(t)^2 dt = 10/(7r)
        p = PlateauProfile(d, r)
        num = quad(lambda z: p.derivative(z) ** 2, -d - r, d + r,
                   points=[-d, d], epsabs=0.0, epsrel=1e-12)[0]
        assert num == pytest.approx(20.0 / (7.0 * r), rel=1e-10)

    def test_plateau_derivative_consistent(self):
        p = PlateauProfile(1.0, 2.0)
        zs = np.linspace(-3.2, 3.2, 41)
        eps = 1e-6
        fd = (p.value(zs + eps) - p.value(zs - eps)) / (2.0 * eps)
        assert np.allclose(p.derivative(zs), fd, atol=1e-8)

    def test_hermite_norm_and_derivative(self):
        coeffs = np.array([0.3, -1.2, 0.0, 0.7])
        p = HermiteBasisProfile(coeffs, scale=1.6)
        num = quad(lambda z: float(p.value(z)[0]) ** 2, -40.0, 40.0, limit=200)[0]
        assert num == pytest.approx(p.norm_sq(), rel=1e-9)
        zs = np.linspace(-5.0, 5.0, 21)
        eps = 1e-6
        fd = (p.value(zs + eps) - p.value(zs - eps)) / (2.0 * eps)
        assert np.allclose(p.derivative(zs), fd, atol=1e-7)

    def test_tabulated_profile(self):
        zs = np.linspace(-4.0, 4.0, 101)
        p = TabulatedProfile(zs, np.exp(-zs**2))
        assert float(p.value(np.array([0.0]))[0]) == pytest.approx(1.0, abs=1e-12)
        assert p.value(np.array([5.0]))[0] == 0.0
        assert p.norm_sq() == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-6)

    @pytest.mark.parametrize("knots,T", [(500, 8.0), (501, 12.0)])
    def test_tabulated_norm_is_the_exact_panel_sum(self, knots, T):
        # sinh-spaced knots, like a mapped-grid eigenvector; the reference
        # integrates the squared spline's piecewise sextic in closed form
        t = np.linspace(-T, T, knots)
        z, values = np.sinh(t), np.exp(-np.sqrt(np.abs(np.sinh(t))))
        c = CubicSpline(z, values, bc_type="natural").c
        squared = np.zeros((7, c.shape[1]))
        for i in range(4):
            for j in range(4):
                squared[i + j] += c[i] * c[j]
        want = PPoly(squared, z).integrate(z[0], z[-1])
        assert TabulatedProfile(z, values).norm_sq() == pytest.approx(want, rel=1e-13)

    def test_rescaled_profile_preserves_norm(self):
        base = PlateauProfile(2.0, 1.0)
        scaled = RescaledProfile(base, 9.0)
        num = quad(lambda z: scaled.value(z) ** 2, -1.5, 1.5,
                   points=[-2.0 / 3.0, 2.0 / 3.0])[0]
        assert num == pytest.approx(base.norm_sq(), rel=1e-10)

    @pytest.mark.parametrize("B", [0.0, -1.0, math.nan, math.inf])
    def test_rescaled_profile_field_must_be_positive_and_finite(self, B):
        with pytest.raises(ValueError, match="B must be positive and finite"):
            RescaledProfile(GaussianProfile(), B)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("name, make", [
        ("width", lambda x: GaussianProfile(x)),
        ("half_width", lambda x: PlateauProfile(x, 1.0)),
        ("ramp", lambda x: PlateauProfile(1.0, x)),
        ("scale", lambda x: HermiteBasisProfile([1.0, 0.5], scale=x)),
    ])
    def test_shape_must_be_positive_and_finite(self, name, make, bad):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            make(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_hermite_coefficients_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="coeffs must be finite"):
            HermiteBasisProfile([1.0, bad, 0.3])


class TestEvaluateGB:
    @pytest.mark.parametrize("nu,B", [(0.85, 10.0), (0.9, 100.0), (0.95, 3.0)])
    def test_gaussian_closed_form(self, nu, B):
        trial = TrialState(0, RescaledProfile(GaussianProfile(1.0), B))
        got = evaluate_GB(nu, B, trial).G_B
        assert got == pytest.approx(gaussian_closed_form(nu, B), rel=1e-8)

    def test_zero_crossing_at_special_coupling(self):
        nu0 = math.sqrt(2.0 / 3.0)
        g = evaluate_GB(nu0, 1.0, TrialState(0, GaussianProfile(1.0))).G_B
        assert abs(g) < 1e-8

    def test_scaling_identity(self):
        # G at field B on the rescaled profile equals sqrt(B) times G at B = 1
        for ell, base in [(0, GaussianProfile(1.3)),
                          (0, PlateauProfile(1.5, 1.0)),
                          (2, HermiteBasisProfile(np.array([1.0, 0.4, -0.2])))]:
            g1 = evaluate_GB(0.6, 1.0, TrialState(ell, base)).G_B
            for B in (4.0, 50.0):
                gB = evaluate_GB(0.6, B, TrialState(ell, RescaledProfile(base, B))).G_B
                assert gB == pytest.approx(math.sqrt(B) * g1, rel=1e-8)

    def test_j_identity_and_certification_flag(self):
        trial = TrialState(0, GaussianProfile(1.0))
        for nu, B in [(0.9, 1000.0), (0.3, 2.0)]:
            ev = evaluate_GB(nu, B, trial)
            assert ev.J_at_minus1 == ev.G_B + 2.0 * trial.profile.norm_sq()
            assert ev.certified == (ev.J_at_minus1 <= 0.0)

    def test_plateau_log_field_decay(self):
        # fixed plateau profile: G_B gains a negative, stabilizing slope in log B
        trial = TrialState(0, PlateauProfile(0.1, 0.05))
        logBs = np.log(np.array([1e2, 1e3, 1e4, 1e5, 1e6]))
        vals = np.array([evaluate_GB(0.5, math.exp(lb), trial).G_B / math.exp(lb / 2.0)
                         for lb in logBs])
        slopes = np.diff(vals) / np.diff(logBs)
        assert np.all(slopes < 0.0)
        assert abs(slopes[-1] - slopes[-2]) < abs(slopes[1] - slopes[0])

    @pytest.mark.parametrize("nu,B,trial", oracle_cases())
    def test_matches_quad_oracle(self, nu, B, trial):
        want = evaluate_GB_quad(nu, B, trial, epsrel=1e-12).G_B
        assert evaluate_GB(nu, B, trial).G_B == pytest.approx(want, rel=1e-10)

    def test_one_array_call_per_rule_and_no_quad(self, monkeypatch):
        def no_quad(*args, **kwargs):
            raise AssertionError("evaluate_GB called quad")

        calls = []
        real = trial_bounds.a_scaled_vec

        def counting(ell, zeta):
            calls.append(ell)
            return real(ell, zeta)

        monkeypatch.setattr(trial_bounds, "quad", no_quad)
        monkeypatch.setattr(trial_bounds, "a_scaled_vec", counting)
        trial = TrialState(2, HermiteBasisProfile(np.array([1.0, 0.4, -0.2, 0.3])))
        evaluate_GB(0.5, 1.0, trial)
        assert 0 < len(calls) <= 2

    @pytest.mark.parametrize("ell", range(4))
    def test_one_array_pass_on_both_rules(self, monkeypatch, ell):
        calls = []
        real = trial_bounds.a_scaled_vec

        def counting(index, zeta):
            calls.append(index)
            return real(index, zeta)

        profile = HermiteBasisProfile(np.array([1.0, 0.4, -0.2, 0.3]))
        counts = {"value": 0, "derivative": 0}
        for name in counts:
            method = getattr(profile, name)

            def counted(z, name=name, method=method):
                counts[name] += 1
                return method(z)

            monkeypatch.setattr(profile, name, counted)
        monkeypatch.setattr(trial_bounds, "a_scaled_vec", counting)
        evaluate_GB(0.5, 1.0, TrialState(ell, profile))
        assert calls == ([0] if ell == 0 else [ell, ell + 1])
        assert counts == {"value": 1, "derivative": 1}

    @pytest.mark.parametrize("epsrel", [1e-10, 1e-15])
    @pytest.mark.parametrize("B", [1e-3, 1.0, 1e4])
    @pytest.mark.parametrize("ell", range(5))
    @pytest.mark.parametrize("rescaled", [False, True])
    @pytest.mark.parametrize("name", sorted(ONE_PASS_BASES))
    def test_bit_identical_to_two_passes(self, name, rescaled, ell, B, epsrel):
        # at 1e-15 most cases raise AccuracyError, those whose two rules
        # agree exactly pass; either way both evaluations must do the same
        base = ONE_PASS_BASES[name]
        trial = TrialState(ell, RescaledProfile(base, B) if rescaled else base)

        def outcome(evaluate):
            try:
                return evaluate(0.6, B, trial, epsrel=epsrel)
            except AccuracyError as err:
                return str(err)

        assert outcome(evaluate_GB) == outcome(evaluate_GB_two_pass)

    def test_panel_doubling_is_the_stopping_criterion(self):
        trial = TrialState(1, HermiteBasisProfile(np.array([0.8, -0.5, 0.3])))
        evaluate_GB(0.5, 1.0, trial, epsrel=1e-12)
        with pytest.raises(AccuracyError):
            evaluate_GB(0.5, 1.0, trial, epsrel=1e-20)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            evaluate_GB(1.5, 1.0, TrialState(0, GaussianProfile()))
        with pytest.raises(ValueError):
            evaluate_GB(0.5, -1.0, TrialState(0, GaussianProfile()))
        with pytest.raises(ValueError):
            TrialState(-1, GaussianProfile())

    @pytest.mark.parametrize("B", [math.nan, math.inf])
    def test_field_must_be_finite(self, B):
        with pytest.raises(ValueError, match="B must be positive and finite"):
            evaluate_GB(0.5, B, TrialState(0, GaussianProfile()))

    @pytest.mark.parametrize("epsrel", [0.0, -1.0, math.nan, math.inf])
    def test_epsrel_must_be_positive_and_finite(self, epsrel):
        # nan would switch the panel-doubling check off, -1 fail it always
        with pytest.raises(ValueError, match="epsrel must be positive and finite"):
            evaluate_GB(0.5, 1.0, TrialState(0, GaussianProfile()), epsrel=epsrel)

    @pytest.mark.parametrize("ell", [math.inf, math.nan])
    def test_trial_ell_must_be_a_finite_integer(self, ell):
        with pytest.raises(ValueError, match="ell must be a nonnegative integer"):
            TrialState(ell, GaussianProfile())


class TestCertificates:
    def test_gaussian_family_reproduces_closed_form(self):
        cert = certify_critical_upper_bound(0.9, "gaussian")
        assert cert.certified
        want = 18.0 * math.pi * 0.81 / (3.0 * 0.81 - 2.0) ** 2
        assert math.exp(cert.log_B_cert) == pytest.approx(want, rel=1e-3)

    def test_gaussian_family_below_threshold_has_no_certificate(self):
        cert = certify_critical_upper_bound(0.5, "gaussian")
        assert not cert.certified
        assert cert.log_B_cert is None
        assert cert.m_star > 0.0

    def test_plateau_family_certifies_at_moderate_coupling(self):
        cert = certify_critical_upper_bound(0.5, "plateau")
        assert cert.certified
        assert math.isfinite(cert.log_B_cert)

    def test_certificates_dominate_rigorous_lower_bound(self):
        for nu, family in [(0.9, "gaussian"), (0.5, "plateau"), (0.85, "plateau")]:
            cert = certify_critical_upper_bound(nu, family)
            if cert.certified:
                lower, _ = hhh_bounds(nu)
                assert cert.log_B_cert >= math.log(lower)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            certify_critical_upper_bound(0.5, "lorentzian")

    def test_plateau_line_search_must_converge(self, monkeypatch):
        # stopped after two iterations, an unchecked search "certifies" m* = -0.0079
        # (log B_cert = 11.07) at nu = 0.9, where the converged one finds -0.1747 (4.88)
        # _line_search imports minimize_scalar when it is called, so it reads the
        # attribute of scipy.optimize at call time
        search = scipy.optimize.minimize_scalar

        def capped(*args, options, **kwargs):
            return search(*args, options={**options, "maxiter": 2}, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize_scalar", capped)
        with pytest.raises(AccuracyError, match="did not converge"):
            certify_critical_upper_bound(0.9, "plateau")


class TestSqrt5Inequality:
    def test_random_trials_respect_bound(self):
        for nu in (0.3, 0.7):
            worst = check_sqrt5_inequality(nu, samples=40, seed=7)
            assert worst >= -nu * math.sqrt(5.0) - 1e-8

    def test_default_sample_count_respects_bound(self):
        assert check_sqrt5_inequality(0.5) >= -0.5 * math.sqrt(5.0) - 1e-8

    def test_small_coupling_blows_up_like_inverse_nu(self):
        f = HermiteBasisProfile(np.array([1.0, 0.2, -0.4]))
        trial = TrialState(0, f)
        r_small = evaluate_GB(0.03, 1.0, trial).G_B / f.norm_sq()
        r_large = evaluate_GB(0.3, 1.0, trial).G_B / f.norm_sq()
        assert r_small > 5.0 * max(r_large, 0.0)
        assert r_small > 0.0

    def test_seeded_run_reproducible(self):
        a = check_sqrt5_inequality(0.3, samples=10, seed=42)
        b = check_sqrt5_inequality(0.3, samples=10, seed=42)
        assert a == b

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            check_sqrt5_inequality(0.3, samples=0)

    @pytest.mark.parametrize("samples", [2.5, math.nan, math.inf, -math.inf])
    def test_samples_must_be_integral(self, samples):
        with pytest.raises(ValueError, match="samples must be an integer"):
            check_sqrt5_inequality(0.3, samples=samples)

    def test_integral_samples_below_one_are_rejected(self):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            check_sqrt5_inequality(0.3, samples=-2.0)

    def test_integral_float_samples_are_counted(self):
        assert check_sqrt5_inequality(0.3, samples=3.0, seed=5) == check_sqrt5_inequality(
            0.3, samples=3, seed=5)
