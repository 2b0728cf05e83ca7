"""Tests for the tridiagonal Dirichlet eigensolver."""

import math

import numpy as np
import pytest

from landaucrit import critical_field, sturm_liouville
from landaucrit.errors import CoefficientError, TruncationError
from landaucrit.groundstate import ground_state_lambda
from landaucrit.potentials import PotentialSpec
from landaucrit.sturm_liouville import (
    SturmLiouvilleProblem,
    build_tridiagonal,
    lowest_eigenvalue,
    positive_definite,
    scaled_pencil,
)

from _reference import ConvergenceStudy, convergence_study, record_solves, sturm_count

ONES = lambda z: np.ones_like(z)
ZEROS = lambda z: np.zeros_like(z)

BAD_STEPS = [0.0, -0.02, math.nan, math.inf]


def eigenvalue(*args, **kwargs):
    """The kernel, looked up at each call, so that record_solves sees these calls."""
    return sturm_liouville.eigenvalue(*args, **kwargs)


#: every public function that takes a grid step h, called with that step
ENTRY_POINTS_WITH_STEP = {
    "critical_field_schrodinger": lambda h: critical_field.critical_field_schrodinger(0.3, h=h),
    "sandwich": lambda h: critical_field.sandwich(0.04, h=h),
    "m_delta": lambda h: critical_field.m_delta(0.3, h=h),
    "ground_state_lambda": lambda h: ground_state_lambda(PotentialSpec(0.5, 10.0), h=h),
    "E1_of_kappa": lambda h: critical_field.E1_of_kappa(-5.0, h=h),
    "odd_points": lambda h: sturm_liouville.odd_points(10.0, h),
}


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

    @pytest.mark.parametrize("h", BAD_STEPS)
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS_WITH_STEP))
    def test_step_must_be_positive_and_finite(self, entry, h):
        # a negative step used to be clamped to the 17-point grid and return
        # a wrong value quietly; inf and h < 0 ran every domain doubling
        with pytest.raises(ValueError, match="h must be positive and finite"):
            ENTRY_POINTS_WITH_STEP[entry](h)


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
        value, v, _ = eigenvalue(diag, offdiag, vector=True)
        assert value == eigenvalue(diag, offdiag)[0]
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
        residual = diag * v - value * v
        residual[:-1] += offdiag * v[1:]
        residual[1:] += offdiag * v[:-1]
        assert np.max(np.abs(residual)) < 1e-8

    def test_resolves_a_tiny_eigenvalue(self):
        # c tridiag(-1, 2, -1) has lowest eigenvalue 4 c sin^2(pi / (2 (n + 1)))
        c, n = 1e-40, 301
        diag, offdiag = np.full(n, 2.0 * c), np.full(n - 1, -c)
        want = 4.0 * c * math.sin(math.pi / (2.0 * (n + 1))) ** 2
        value = eigenvalue(diag, offdiag)[0]
        assert value == pytest.approx(want, rel=1e-12)
        assert eigenvalue(diag, offdiag, vector=True)[0] == value

    def test_index_selects_that_eigenvalue(self):
        # tridiag(-1, 2, -1) has eigenvalues 4 sin^2(k pi / (2 (n + 1))), k = 1..n
        n = 41
        diag, offdiag = np.full(n, 2.0), np.full(n - 1, -1.0)
        for index in (0, 20, 40):
            want = 4.0 * math.sin((index + 1) * math.pi / (2.0 * (n + 1))) ** 2
            assert eigenvalue(diag, offdiag, index=index)[0] == pytest.approx(
                want, abs=1e-11)


def tiny_matrix():
    """c tridiag(-1, 2, -1), c = 1e-40, n = 301: lowest eigenvalue ~1.08e-44,
    the next one about four times larger."""
    c, n = 1e-40, 301
    return np.full(n, 2.0 * c), np.full(n - 1, -c)


def pencil_matrix():
    """Coarse Schrodinger pencil S A S at delta = 0.01, h = 0.1 (3 741 rows,
    sigma_1 ~ -e^-157)."""
    delta = 0.01
    step, log_mu = critical_field._log_mu_grids(math.pi / (2.0 * delta) + 30.0, 0.1)[0]
    s = np.exp(-0.5 * log_mu)
    return scaled_pencil(np.ones(s.size + 1), np.full(s.size, -delta * delta), s, step)


def record_selects(monkeypatch):
    """The path of every kernel call from now on, as one flat list: "inverse"
    for a certified inverse iteration, else the ``select`` of each bisection."""
    return record_solves(monkeypatch).steps


class TestWindow:
    """window=(lo, hi): once dpttrf certifies that nothing lies at or below
    lo, inverse iteration from those factors, certified by factorisations at
    rho -+ c |rho| (c = CERTIFICATE_WIDTH) with rho in (lo, hi]; bisection
    inside (lo, hi], then the index selection, where that fails, and the
    index selection alone where lo is not certified."""

    @pytest.mark.parametrize("matrix", [tiny_matrix, pencil_matrix])
    def test_window_holding_the_lowest_is_certified(self, monkeypatch, matrix):
        # the certificate puts an eigenvalue in (rho - c |rho|, rho + c |rho|]
        # and none at or below its bottom, so rho lies within c |rho| of the
        # index selection's bisection; the vector comes with the value
        diag, offdiag = matrix()
        value, vector, _ = eigenvalue(diag, offdiag, vector=True)
        window = (4.0 * value, 0.25 * value) if value < 0.0 else (0.25 * value, 4.0 * value)
        selects = record_selects(monkeypatch)
        got, no_vector, bisections = eigenvalue(diag, offdiag, window=window)
        got_pair, got_vector, _ = eigenvalue(diag, offdiag, window=window, vector=True)
        assert selects == ["inverse", "inverse"]
        assert (no_vector, bisections, got_pair) == (None, 0, got)
        width = sturm_liouville.CERTIFICATE_WIDTH * abs(got)
        assert abs(got - value) <= width
        assert positive_definite(diag - (got - width), offdiag)
        assert not positive_definite(diag - (got + width), offdiag)
        assert np.linalg.norm(got_vector) == pytest.approx(1.0, rel=1e-12)
        assert abs(got_vector @ vector) == pytest.approx(1.0, abs=1e-11)

    def test_unsettled_iteration_falls_back_to_the_bisection(self, monkeypatch):
        # one inverse step leaves rho far outside the certificate's width on
        # the tiny matrix (the next eigenvalue is only 4 times larger): the
        # windowed bisection runs, as it did before inverse iteration
        diag, offdiag = tiny_matrix()
        value = eigenvalue(diag, offdiag)[0]
        window = (0.25 * value, 4.0 * value)
        monkeypatch.setattr(sturm_liouville, "MAX_INVERSE_STEPS", 1)
        selects = record_selects(monkeypatch)
        got, _, bisections = eigenvalue(diag, offdiag, window=window)
        assert (selects, bisections) == (["v"], 1)
        assert abs(got - value) <= 4.0 * np.spacing(value)

    @pytest.mark.parametrize("matrix", [tiny_matrix, pencil_matrix])
    @pytest.mark.parametrize("miss, selected", [
        # certified (nothing at or below lo) but empty: bisection, then the index
        ("empty", ["v", "i"]),
        # lo above sigma_1, so dpttrf fails and the index selection runs alone;
        # the window holds sigma_2 and would otherwise return it
        ("lo above sigma_1", ["i"]),
    ])
    def test_missed_window_falls_back_to_index_selection(self, monkeypatch, matrix, miss,
                                                         selected):
        diag, offdiag = matrix()
        value, vector, _ = eigenvalue(diag, offdiag, vector=True)
        second = eigenvalue(diag, offdiag, index=1)[0]
        if miss == "empty":
            window = (value - 2.0 * abs(value), value - abs(value))
        else:
            window = (value + 0.5 * (second - value), second + abs(second))
            assert window[0] < second <= window[1]
        selects = record_selects(monkeypatch)
        got = eigenvalue(diag, offdiag, window=window)[0]
        got_pair, got_vector, _ = eigenvalue(diag, offdiag, window=window, vector=True)
        assert selects == selected * 2
        assert got == got_pair == value
        assert np.array_equal(got_vector, vector)

    def test_window_selects_the_lowest_only(self):
        diag, offdiag = tiny_matrix()
        with pytest.raises(ValueError):
            eigenvalue(diag, offdiag, index=1, window=(0.0, 1.0))


def dirac_matrix(n=200, h=0.05):
    """Free staggered Dirac matrix of size 2n + 1: -1 at the n + 1 even rows,
    +1 at the n odd ones, coupling 1/h.  It has n + 1 eigenvalues at or below
    -1, and eigenvalue n + 1 (0-based), the lowest above the gap, is
    sqrt(1 + (2/h)^2 sin^2(pi/(2(n + 1)))); eigenvalue n is its negative."""
    diag = np.empty(2 * n + 1)
    diag[0::2], diag[1::2] = -1.0, 1.0
    level = math.sqrt(1.0 + (2.0 / h * math.sin(math.pi / (2.0 * (n + 1)))) ** 2)
    return diag, np.full(2 * n, 1.0 / h), level


class TestCount:
    """sturm_liouville._count, one Sturm count, against a dense count of the
    eigenvalues at or below x, on the ground level's Dirac matrices: levels
    above -1, just below it (B/B_L 0.99999, ell 0) and far below it (past
    B_L), at x between neighbouring eigenvalues around the level."""

    @pytest.mark.parametrize("nu,B,ell,below", [
        (0.3, 2.0, 0, False), (0.65, 50.0, 1, False), (0.3, None, 0, True), (0.65, None, 0, True),
        (0.85, 1e4, 0, True), (0.9, 1e8, 3, True)])
    def test_matches_a_dense_count(self, nu, B, ell, below):
        # B None is B/B_L 0.99999
        from scipy.linalg import eigvalsh_tridiagonal

        from landaucrit import groundstate
        if B is None:
            B = 0.99999 * math.exp(critical_field.critical_field_direct(nu).log_BL)
        spec = PotentialSpec(nu, B, ell)
        T = math.asinh(math.sqrt(B) * groundstate._default_domain(spec))
        grid = groundstate._Grid(spec, T, sturm_liouville.odd_points(T, 0.025))
        diag, offdiag = grid.dirac()
        values = eigvalsh_tridiagonal(diag, offdiag)
        around = values[grid.n - 3:grid.n + 6]
        points = [*(0.5 * (around[:-1] + around[1:])), values[0] - 1.0, values[-1] + 1.0, -1.0]
        for x in points:
            assert sturm_liouville._count(diag, offdiag, x) == np.count_nonzero(values <= x), x
        level = values[grid.n + 1]
        assert (level < -1.0) == below
        assert grid.below(0.5 * (values[grid.n] + level)) and not grid.below(around[-1])

    def test_free_dirac_matrix(self):
        diag, offdiag, level = dirac_matrix()
        assert sturm_liouville._count(diag, offdiag, -1.0) == 201
        assert sturm_liouville._count(diag, offdiag, 0.5 * (level + 1.0)) == 201
        assert sturm_liouville._count(diag, offdiag, level * (1.0 + 1e-9)) == 202
        assert sturm_liouville._count(diag, offdiag, -1e3) == 0
        assert sturm_liouville._count(diag, offdiag, 1e3) == 401


class TestStaggeredWindow:
    """window=(lo, hi) with index > 0 on a staggered matrix: the kernel
    factors the Schur complement of its even rows' block less lo, which
    certifies the count at lo (Haynsworth), and runs the certified inverse
    iteration from those factors; the windowed bisection, then the index
    selection, where that fails."""

    @pytest.mark.parametrize("half_width", [0.5, 1e-3, 1e-9])
    def test_staggered_window_is_certified(self, monkeypatch, half_width):
        diag, offdiag, level = dirac_matrix()
        value = eigenvalue(diag, offdiag, index=201)[0]
        assert value == pytest.approx(level, rel=1e-15)
        lo = level - half_width
        selects = record_selects(monkeypatch)
        got, vector, bisections = eigenvalue(diag, offdiag, index=201,
                                             window=(lo, level + half_width), vector=True)
        assert (selects, bisections) == (["inverse"], 0)
        assert abs(got - value) <= sturm_liouville.CERTIFICATE_WIDTH * abs(value)
        # the vector is the last unit iterate of the full matrix
        residual = diag * vector - got * vector
        residual[:-1] += offdiag * vector[1:]
        residual[1:] += offdiag * vector[:-1]
        assert np.linalg.norm(vector) == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(residual)) < 1e-6

    def test_schur_complement_is_the_t_pencil(self):
        # on a ground-level grid the Schur complement of H less x is the
        # T-pencil less x, T(x) - x, up to the sign of its off-diagonal
        from landaucrit import groundstate
        spec = PotentialSpec(0.5, 1.0)
        T = math.asinh(60.0)
        grid = groundstate._Grid(spec, T, sturm_liouville.odd_points(T, 0.025))
        schur_diag, schur_offdiag = sturm_liouville._shifted(*grid.dirac(), 0.3, True)
        diag, offdiag, _ = grid._pencil(0.3)
        assert np.allclose(schur_diag, diag + 1.0 - 0.3, rtol=1e-13, atol=0.0)
        assert np.allclose(schur_offdiag, -offdiag, rtol=1e-13, atol=0.0)
        # no Schur complement where the even rows' block is not negative definite
        assert sturm_liouville._shifted(*grid.dirac(), -1.0 - grid.nu_a.max(), True) is None

    @pytest.mark.parametrize("window, selected", [
        # lo above the level: the Schur complement is not positive definite,
        # index selection alone
        ((1.1, 2.0), ["i"]),
        # lo at the even block's top: no Schur complement, index selection alone
        ((-1.0, 2.0), ["i"]),
        # certified but empty: inverse iteration finds the level above hi,
        # bisection, then the index selection
        ((0.5, 1.0), ["v", "i"]),
        # lo just above eigenvalue n, the level's mirror below the gap: the
        # shift is closer to it, inverse iteration converges there, below lo,
        # and the bisection inside the window returns the level
        ((-0.95, 1.2), ["v"]),
    ], ids=["guard_fails", "no_schur_complement", "empty", "converges_to_eigenvalue_n"])
    def test_missed_staggered_window_falls_back_to_bisection(self, monkeypatch, window,
                                                             selected):
        diag, offdiag, _ = dirac_matrix()
        value = eigenvalue(diag, offdiag, index=201)[0]
        selects = record_selects(monkeypatch)
        got, _, bisections = eigenvalue(diag, offdiag, index=201, window=window)
        assert selects == selected and bisections == len(selected)
        assert abs(got - value) <= 2.0 * np.spacing(value)

    def test_unsettled_iteration_falls_back_to_the_bisection(self, monkeypatch):
        # one inverse step from a shift half-way to the level does not certify
        diag, offdiag, level = dirac_matrix()
        value = eigenvalue(diag, offdiag, index=201)[0]
        monkeypatch.setattr(sturm_liouville, "MAX_INVERSE_STEPS", 1)
        selects = record_selects(monkeypatch)
        got, _, bisections = eigenvalue(diag, offdiag, index=201, window=(0.5, 1.5))
        assert (selects, bisections) == (["v"], 1)
        assert abs(got - value) <= 2.0 * np.spacing(value)

    @pytest.mark.parametrize("index", [200, 202])
    def test_window_needs_the_staggered_index(self, index):
        diag, offdiag, _ = dirac_matrix()
        with pytest.raises(ValueError):
            eigenvalue(diag, offdiag, index=index, window=(0.5, 1.5))
        with pytest.raises(ValueError):
            eigenvalue(diag[:-1], offdiag[:-1], index=200, window=(0.5, 1.5))
