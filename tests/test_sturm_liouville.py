"""Tests for the tridiagonal Dirichlet eigensolver."""

import math

import numpy as np
import pytest

from landaucrit.errors import CoefficientError, TruncationError
from landaucrit.sturm_liouville import (
    SturmLiouvilleProblem,
    build_tridiagonal,
    lowest_eigenvalue,
    lowest_of_tridiagonal,
    lowest_pair_of_tridiagonal,
)

from _reference import ConvergenceStudy, convergence_study, sturm_count

ONES = lambda z: np.ones_like(z)
ZEROS = lambda z: np.zeros_like(z)


def bisect_root(f, lo, hi, iters=200):
    """Plain bisection; oracle root finder independent of scipy."""
    flo = f(lo)
    assert flo * f(hi) < 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestOracles:
    def test_free_dirichlet_mode(self):
        # -f'' = E f on an interval of length pi: ground mode E = 1
        problem = SturmLiouvilleProblem(p=ONES, q=ZEROS, L=math.pi / 2.0, n=2000)
        res = lowest_eigenvalue(problem, stabilize_domain=False)
        assert res.value == pytest.approx(1.0, abs=1e-6)
        assert res.extrapolated

    def test_harmonic_oscillator(self):
        # -f'' + z^2 f = E f: ground energy 1
        problem = SturmLiouvilleProblem(p=ONES, q=lambda z: z * z, L=12.0, n=4000)
        res = lowest_eigenvalue(problem, stabilize_domain=False)
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_step_potential_against_transcendental_root(self):
        # q = 0 on (-sigma, sigma), height hgt outside; even ground state obeys
        # sqrt(E) sigma = arctan(sqrt((hgt - E)/E)).
        sigma, hgt = 2.0, 5.0
        expected = bisect_root(
            lambda E: math.sqrt(E) * sigma - math.atan(math.sqrt((hgt - E) / E)),
            1e-9, hgt - 1e-9,
        )
        assert expected == pytest.approx(0.40987003688331624, rel=1e-12)

        def q_step(z):
            return np.where(np.abs(z) <= sigma, 0.0, hgt)

        # h chosen so the jumps land on cell boundaries (midpoints of nodes):
        # h = 4/m with odd m puts |z| = 2 exactly between two nodes.
        m = 40001
        h = 4.0 / m
        L = 12.0
        n = int(round(2.0 * L / h)) - 1
        problem = SturmLiouvilleProblem(p=ONES, q=q_step, L=L, n=n)
        res = lowest_eigenvalue(problem, richardson=False, stabilize_domain=False)
        assert res.value == pytest.approx(expected, abs=1e-6)


class TestConvergence:
    def test_second_order_on_harmonic_oscillator(self):
        problem = SturmLiouvilleProblem(p=ONES, q=lambda z: z * z, L=12.0, n=400)
        study = convergence_study(problem, 4)
        assert isinstance(study, ConvergenceStudy)
        assert len(study.results) == 4
        assert 1.7 <= study.observed_order <= 2.3

    def test_errors_decrease_monotonically(self):
        problem = SturmLiouvilleProblem(p=ONES, q=ZEROS, L=math.pi / 2.0, n=100)
        study = convergence_study(problem, 4)
        errs = [abs(r.value - 1.0) for r in study.results]
        assert errs == sorted(errs, reverse=True)

    def test_sequence_length(self):
        problem = SturmLiouvilleProblem(p=ONES, q=lambda z: z * z, L=10.0, n=64)
        assert len(convergence_study(problem, 3).results) == 3

    def test_refinements_validated(self):
        problem = SturmLiouvilleProblem(p=ONES, q=ZEROS, L=1.0, n=32)
        with pytest.raises(ValueError):
            convergence_study(problem, 1)


class TestMonotonicity:
    def test_domain_monotonicity(self):
        # enlarging L never increases the Dirichlet ground eigenvalue
        # (up to discretization noise of ~1e-9 once truncation is converged)
        q = lambda z: z * z
        values = []
        for L in (1.5, 2.0, 3.0, 5.0, 8.0):
            problem = SturmLiouvilleProblem(p=ONES, q=q, L=L, n=int(800 * L))
            values.append(lowest_eigenvalue(problem, stabilize_domain=False).value)
        assert all(b <= a + 1e-8 for a, b in zip(values, values[1:]))

    def test_coefficient_monotonicity(self):
        q1 = lambda z: np.zeros_like(z)
        q2 = lambda z: 0.3 / (1.0 + z * z)
        e1 = lowest_eigenvalue(SturmLiouvilleProblem(ONES, q1, 6.0, 1200), stabilize_domain=False)
        e2 = lowest_eigenvalue(SturmLiouvilleProblem(ONES, q2, 6.0, 1200), stabilize_domain=False)
        assert e1.value <= e2.value


class TestSturmCount:
    def test_count_brackets_converged_eigenvalue(self):
        problem = SturmLiouvilleProblem(p=ONES, q=lambda z: z * z, L=12.0, n=3000)
        diag, offdiag, _ = build_tridiagonal(problem)
        value = lowest_eigenvalue(problem, richardson=False, stabilize_domain=False).value
        assert sturm_count(diag, offdiag, value - 1e-8) == 0
        assert sturm_count(diag, offdiag, value + 1e-8) == 1


class TestErrors:
    def test_negative_p_rejected(self):
        problem = SturmLiouvilleProblem(p=lambda z: 1.0 - 0.2 * z, q=ZEROS, L=10.0, n=100)
        with pytest.raises(CoefficientError):
            lowest_eigenvalue(problem)

    def test_domain_nonconvergence_carries_values(self):
        # free particle: E ~ (pi/2L)^2 keeps shrinking, never stabilizes
        problem = SturmLiouvilleProblem(p=ONES, q=ZEROS, L=1.0, n=64)
        with pytest.raises(TruncationError) as err:
            lowest_eigenvalue(problem, domain_tol=1e-12, max_doublings=3)
        assert err.value.last_values is not None
        assert all(math.isfinite(v) for v in err.value.last_values)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            SturmLiouvilleProblem(p=ONES, q=ZEROS, L=-1.0, n=100)
        with pytest.raises(ValueError):
            SturmLiouvilleProblem(p=ONES, q=ZEROS, L=1.0, n=8)


class TestResultInvariants:
    def test_error_estimate_nonnegative_and_grid_reported(self):
        problem = SturmLiouvilleProblem(p=ONES, q=lambda z: z * z, L=10.0, n=500)
        res = lowest_eigenvalue(problem, stabilize_domain=False)
        assert res.error_estimate >= 0.0
        assert res.grid == (res.L, res.n)

    def test_domain_stabilization_returns_stable_value(self):
        q = lambda z: z * z
        problem = SturmLiouvilleProblem(p=ONES, q=q, L=6.0, n=1200)
        stabilized = lowest_eigenvalue(problem, domain_tol=1e-9)
        wide = lowest_eigenvalue(
            SturmLiouvilleProblem(ONES, q, 24.0, 4800), stabilize_domain=False
        )
        assert stabilized.value == pytest.approx(wide.value, abs=1e-8)


class TestEigenpair:
    def test_pair_matches_value_only_solve(self):
        problem = SturmLiouvilleProblem(p=ONES, q=lambda z: z * z, L=10.0, n=801)
        diag, offdiag, _ = build_tridiagonal(problem)
        value, v = lowest_pair_of_tridiagonal(diag, offdiag)
        assert value == lowest_of_tridiagonal(diag, offdiag)
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
        residual = diag * v - value * v
        residual[:-1] += offdiag * v[1:]
        residual[1:] += offdiag * v[:-1]
        assert np.max(np.abs(residual)) < 1e-8

    def test_tiny_tol_resolves_a_tiny_eigenvalue(self):
        # c tridiag(-1, 2, -1) has lowest eigenvalue 4 c sin^2(pi / (2 (n + 1)))
        c, n = 1e-40, 301
        diag, offdiag = np.full(n, 2.0 * c), np.full(n - 1, -c)
        want = 4.0 * c * math.sin(math.pi / (2.0 * (n + 1))) ** 2
        value = lowest_of_tridiagonal(diag, offdiag, tol=1e-300)
        assert value == pytest.approx(want, rel=1e-12)
        assert lowest_pair_of_tridiagonal(diag, offdiag, tol=1e-300)[0] == value
        # the default absolute tolerance cannot see an eigenvalue of 1e-44
        assert abs(lowest_of_tridiagonal(diag, offdiag) - want) > 1e3 * want

    def test_index_selects_that_eigenvalue(self):
        # tridiag(-1, 2, -1) has eigenvalues 4 sin^2(k pi / (2 (n + 1))), k = 1..n
        n = 41
        diag, offdiag = np.full(n, 2.0), np.full(n - 1, -1.0)
        for index in (0, 20, 40):
            want = 4.0 * math.sin((index + 1) * math.pi / (2.0 * (n + 1))) ** 2
            assert lowest_of_tridiagonal(diag, offdiag, index=index) == pytest.approx(
                want, abs=1e-11)
