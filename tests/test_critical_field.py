"""Tests for the two critical-field routes, brackets, and constants."""

import importlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.sparse import diags
from scipy.sparse.linalg import eigsh
from scipy.special import erfcx, loggamma

from landaucrit import critical_field as cf
from landaucrit import groundstate, sturm_liouville
from landaucrit.errors import AccuracyError, TruncationError
from landaucrit.potentials import PotentialSpec
from landaucrit.sturm_liouville import EigenResult

from _reference import (INVERSE, T_of_lambda, record_factorisations, record_solves,
                        uniform_grid)

NU_BAR_REF = 0.056080339709502179  # 30-digit bisection on 2(nu+sqrt(nu)) = 2-sqrt(2)

#: upper bound on the Schrodinger route's log_BL_error (its float floor, which
#: grows as delta falls: 1.6e-7 at 0.05, 7.9e-10 at 0.3)
SCHRODINGER_FLOOR_MAX = {0.05: 1e-6, 0.1: 1e-7, 0.15: 1e-8, 0.3: 1e-9, 0.5: 1e-9, 0.7: 1e-9}


@pytest.fixture(scope="module")
def schrodinger_05():
    return cf.critical_field_schrodinger(0.5)


@pytest.fixture(scope="module")
def schrodinger_01():
    return cf.critical_field_schrodinger(0.1)


@pytest.fixture(scope="module")
def m_05():
    return cf.m_delta(0.5)


def pencil_grid(delta, h):
    """(step, log mu) of the coarse grid that critical_field_schrodinger uses at h."""
    return cf._log_mu_grids(math.pi / (2.0 * delta) + 30.0, h)[0]


def oracle_m_delta(delta, L=2000.0, n=100001):
    """ARPACK shift-invert oracle for the z-space eigenvalue, with one
    Richardson step; independent of the package's bisection solver."""

    def solve(nn):
        h = 2.0 * L / (nn + 1)
        nodes = -L + h * np.arange(1, nn + 1)
        mids = -L + h * (np.arange(nn + 1) + 0.5)
        a = lambda z: math.sqrt(math.pi / 2.0) * erfcx(np.abs(z) / np.sqrt(2.0))
        p = 1.0 / (delta * a(mids))
        q = -delta * a(nodes)
        diag = (p[:-1] + p[1:]) / h**2 + q
        off = -p[1:-1] / h**2
        A = diags([off, diag, off], [-1, 0, 1], format="csc")
        row = diag.copy()
        row[:-1] -= np.abs(off)
        row[1:] -= np.abs(off)
        sigma = float(row.min()) - 1.0
        return float(eigsh(A, k=1, sigma=sigma, which="LM",
                           return_eigenvectors=False, tol=1e-12)[0])

    e1, e2 = solve(n), solve(2 * n + 1)
    return (4.0 * e2 - e1) / 3.0


class TestMDelta:
    def test_negative_for_all_tested_couplings(self):
        for delta in (0.3, 0.5, 0.8):
            assert cf.m_delta(delta) < 0.0

    def test_against_independent_oracle(self):
        got = cf.m_delta(0.5)
        want = oracle_m_delta(0.5)
        assert got == pytest.approx(want, abs=1e-5)

    def test_kappa_sign_bookkeeping(self):
        m = cf.m_delta(0.5)
        kappa = -0.5 * m
        assert kappa > 0.0
        assert math.isfinite(math.log(kappa))

    def test_scaling_law_in_field(self):
        m1 = cf.m_delta(0.5)
        for B in (4.0, 25.0):
            mB = cf.m_delta(0.5, B=B)
            assert abs(mB - math.sqrt(B) * m1) < 1e-4

    @pytest.mark.parametrize("B", [1.0, 4.0, 9.0])
    def test_threshold_operator_is_one_plus_sqrt_B_m(self, m_05, B):
        """T(-1; nu, B) = 1 + sqrt(B) m(nu), the identity behind sqrt(B_L) = 2/|m|.

        T is taken on the h/2 grid of its default domain: on its default grid
        it is about 1.7e-9 sqrt(B) off, the grid error of m there."""
        spec = PotentialSpec(0.5, B)
        L, n = uniform_grid(spec)
        got = T_of_lambda(spec, -1.0, L=L, n=2 * n + 1)
        assert abs(got - (1.0 + math.sqrt(B) * m_05)) <= 1e-9

    @pytest.mark.parametrize("delta", [0.05, 0.3])
    def test_eigensolve_count(self, monkeypatch, delta):
        """One pencil pair on the first domain; the sinh-mapped grid needs
        about 2 (pi/(2 delta) + log 192)/h rows, each by certified inverse
        iteration.  Each grid factors its pencil four times: the window guard,
        the certificate's two (its top is the bracket's Dirichlet side) and
        the bracket's Neumann side."""
        solves, factored = record_solves(monkeypatch), record_factorisations(monkeypatch)
        cf.critical_field_direct(delta)
        assert len(solves) == 2
        assert max(solve.rows for solve in solves) <= 10_000
        assert [solve.path for solve in solves] == [INVERSE] * 2
        assert factored == [solves[0].rows] * 4 + [solves[1].rows] * 4

    def test_one_potential_pass_per_domain(self, monkeypatch):
        # the potential is sampled once per domain, on the 4n + 3 nodes and
        # midpoints of the fine grid, shared by the pair; the same call twice
        # does the same work.  The default domain certifies at once, so a
        # quarter of it makes the call double (3 domains at delta = 0.3)
        monkeypatch.setattr(cf, "DIRECT_PAD", 24.0)
        points, grids = [], []
        real_samples, real_threshold = groundstate._samples, groundstate._Grid.threshold

        def recording_samples(spec, t):
            points.append(np.size(t))
            return real_samples(spec, t)

        def recording_threshold(grid, window):
            grids.append(grid.n)
            return real_threshold(grid, window)

        monkeypatch.setattr(groundstate, "_samples", recording_samples)
        monkeypatch.setattr(groundstate._Grid, "threshold", recording_threshold)
        first = cf.m_delta(0.3)
        work = (list(points), list(grids))
        coarse = grids[0::2]
        assert len(grids) >= 4 and len(points) == len(coarse)
        assert points == [4 * n + 3 for n in coarse]
        points.clear()
        grids.clear()
        assert cf.m_delta(0.3) == first
        assert (points, grids) == work

    def test_doubling_budget_exhausted_raises(self, monkeypatch):
        # a quarter of the default domain does not certify at delta = 0.5
        monkeypatch.setattr(cf, "DIRECT_PAD", 24.0)
        monkeypatch.setattr(cf, "MAX_DIRECT_DOUBLINGS", 0)
        with pytest.raises(TruncationError):
            cf.m_delta(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            cf.m_delta(1.5)

    @pytest.mark.parametrize("B", [0.0, -1.0, math.nan, math.inf])
    def test_field_must_be_positive_and_finite(self, B):
        with pytest.raises(ValueError, match="B must be positive and finite"):
            cf.m_delta(0.3, B=B)


class TestDirectCertificate:
    """m_delta stops on the first domain whose two grids both certify the
    Dirichlet-Neumann bracket m -+ CERTIFICATE_WIDTH |m| of the threshold."""

    # near the gate the factorisations and the bisection of m disagree on the
    # inertia by up to 4.2e-10 |m|; with a bracket half-width of 2.5e-10 |m|
    # about 1 delta in 15 there failed to certify, and some ran out of doublings
    @pytest.mark.parametrize("deltas", [np.linspace(0.05, 0.99, 37), np.linspace(0.05, 0.1, 101)],
                             ids=["whole_range", "near_the_gate"])
    def test_every_delta_certifies_on_the_first_domain(self, monkeypatch, deltas):
        solves = record_solves(monkeypatch)
        for delta in deltas:
            solves.clear()
            cf.m_delta(float(delta))
            assert len(solves) == 2, delta

    @pytest.mark.parametrize("delta", [0.05, 0.3, 0.9])
    def test_doubled_domain_lies_in_the_certified_bound(self, monkeypatch, delta):
        # the bound (4 w_fine + w_coarse)/3 is 10/3 CERTIFICATE_WIDTH |m|, up
        # to the grid error of m; the doubled domain moves m by at most
        # 1.5e-10 relative
        m = cf.m_delta(delta)
        monkeypatch.setattr(cf, "DIRECT_PAD", 2.0 * cf.DIRECT_PAD)
        bound = 10.0 / 3.0 * sturm_liouville.CERTIFICATE_WIDTH * abs(m)
        assert abs(cf.m_delta(delta) - m) <= bound

    @pytest.mark.parametrize("delta", [0.05, 0.5])
    def test_small_pad_doubles_to_the_default_value(self, monkeypatch, delta):
        want = cf.m_delta(delta)
        monkeypatch.setattr(cf, "DIRECT_PAD", 24.0)
        solves, factored = record_solves(monkeypatch), record_factorisations(monkeypatch)
        got = cf.m_delta(delta)
        assert len(solves) > 2
        # four factorisations per grid, on three domains at 0.05 and two at 0.5
        assert len(factored) == {0.05: 24, 0.5: 16}[delta]
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_outside_condition_failure_doubles_the_domain(self, monkeypatch):
        # -nu a = -delta sqrt(pi/2), the deepest the potential gets, at the
        # first domain's end samples lies below m: the bracket is not
        # certified there, and the call doubles the domain
        want = cf.m_delta(0.5)
        passes = []
        real = groundstate.a_ell_grid

        def deep_ends(spec, z):
            a = real(spec, z)
            if not passes:
                a[[0, -1]] = math.sqrt(0.5 * math.pi)
            passes.append(np.size(z))
            return a

        monkeypatch.setattr(groundstate, "a_ell_grid", deep_ends)
        solves = record_solves(monkeypatch)
        got = cf.m_delta(0.5)
        assert (len(passes), len(solves)) == (2, 4)
        assert got == pytest.approx(want, rel=4.0 * sturm_liouville.CERTIFICATE_WIDTH,
                                    abs=0.0)

    def test_neumann_failure_doubles_the_domain(self, monkeypatch):
        # the Neumann check of both grids of the first domain fails
        want = cf.m_delta(0.5)
        checks = []
        real = groundstate._Grid._above

        def above(pencil, shift, *, neumann=False):
            if neumann:
                checks.append(pencil[0].size)
                if len(checks) <= 2:
                    return False
            return real(pencil, shift, neumann=neumann)

        monkeypatch.setattr(groundstate._Grid, "_above", staticmethod(above))
        solves = record_solves(monkeypatch)
        got = cf.m_delta(0.5)
        assert (len(checks), len(solves)) == (4, 4)
        assert got == pytest.approx(want, rel=4.0 * sturm_liouville.CERTIFICATE_WIDTH,
                                    abs=0.0)

    def test_bisected_threshold_factors_its_dirichlet_top(self, monkeypatch):
        # a certified threshold takes its bracket's Dirichlet side from the
        # kernel's certificate; after one inverse step the kernel bisects, and
        # the threshold factors the Dirichlet pencil less the top itself.
        # Forced positive definite on both grids of the first domain, that
        # side fails and the call doubles the domain
        want = cf.m_delta(0.5)
        dirichlet = []
        real = groundstate._Grid._above

        def above(pencil, shift, *, neumann=False):
            if not neumann:
                dirichlet.append(pencil[0].size)
                if len(dirichlet) <= 2:
                    return True
            return real(pencil, shift, neumann=neumann)

        monkeypatch.setattr(groundstate._Grid, "_above", staticmethod(above))
        assert (cf.m_delta(0.5), dirichlet) == (want, [])
        monkeypatch.setattr(sturm_liouville, "MAX_INVERSE_STEPS", 1)
        solves = record_solves(monkeypatch)
        got = cf.m_delta(0.5)
        assert [solve.path for solve in solves] == [("v",)] * 4
        assert len(dirichlet) == 4
        assert got == pytest.approx(want, rel=4.0 * sturm_liouville.CERTIFICATE_WIDTH,
                                    abs=0.0)


class TestCrossMethod:
    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.15, 0.3, 0.5, 0.7])
    def test_direct_and_schrodinger_agree(self, delta):
        direct = cf.critical_field_direct(delta)
        schrod = cf.critical_field_schrodinger(delta)
        assert abs(direct.log_BL - schrod.log_BL) <= 1e-7
        assert direct.method == "direct_scaling"
        assert schrod.method == "schrodinger_form"
        assert direct.log_BL_error is None
        assert 0.0 < schrod.log_BL_error < SCHRODINGER_FLOOR_MAX[delta]

    def test_monotone_decreasing_in_coupling(self):
        vals = [cf.critical_field_schrodinger(d).log_BL for d in (0.2, 0.35, 0.5, 0.65)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_direct_range_gate(self):
        with pytest.raises(ValueError):
            cf.critical_field_direct(0.04)

    def test_schrodinger_range_gate(self):
        with pytest.raises(ValueError):
            cf.critical_field_schrodinger(0.005)
        with pytest.raises(ValueError):
            cf.critical_field_schrodinger(0.8)


class TestE1:
    def test_zero_potential_gives_free_dirichlet_level(self):
        for Y in (10.0, 100.0):
            res = cf.E1_of_kappa(-math.inf, Y=Y)
            assert isinstance(res, EigenResult)
            assert res.value == pytest.approx((math.pi / (2.0 * Y)) ** 2, rel=1e-5)

    def test_monotone_increasing_in_kappa(self):
        vals = [cf.E1_of_kappa(lk, Y=40.0).value
                for lk in (-8.0, -5.0, -3.0, -1.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_solved_level_inside_analytic_bracket(self, schrodinger_05, schrodinger_01):
        for result, delta in [(schrodinger_05, 0.5), (schrodinger_01, 0.1)]:
            lo, hi = result.e1_bracket
            assert lo <= delta * delta <= hi

    def test_kappa_zero_requires_explicit_domain(self):
        with pytest.raises(ValueError):
            cf.E1_of_kappa(-math.inf)

    @pytest.mark.parametrize("log_kappa", [-8.0, -1.0, -math.inf])
    def test_matches_generic_solver(self, log_kappa):
        """The cached-grid path equals the generic Sturm-Liouville solve on the
        same grid pair, with log mu sampled inside the potential."""
        Y = 40.0
        log_cap = math.log(cf.WALL_CAP)
        problem = sturm_liouville.SturmLiouvilleProblem(
            p=lambda y: np.ones_like(y),
            q=lambda y: np.exp(np.minimum(log_kappa + cf.log_mu_of_y(y), log_cap)),
            L=Y,
            n=int(round(2.0 * Y / 0.02)) - 1,
        )
        want = sturm_liouville.lowest_eigenvalue(problem, stabilize_domain=False).value
        assert cf.E1_of_kappa(log_kappa, Y=Y).value == want


class TestBracket:
    def test_bracket_orders_and_scales(self, schrodinger_01):
        lo, hi = cf.bracket_E1(0.1, schrodinger_01.log_kappa)
        assert 0.0 < lo <= hi
        sigma = -schrodinger_01.log_kappa
        scale = math.pi**2 / (4.0 * sigma**2)
        assert 0.5 * scale < lo <= 4.0 * scale
        assert lo <= hi <= 6.0 * scale

    def test_bracket_requires_kappa_below_one(self):
        with pytest.raises(ValueError):
            cf.bracket_E1(0.5, 0.5)


class TestStepWellRoot:
    """The lower side of bracket_E1: Newton steps on the angle form of the
    step-well condition, in place of a bracketing root finder."""

    def test_matches_brentq_on_each_pencil(self, monkeypatch):
        """At each pencil's log kappa the lower side is brentq's root of the
        step condition sqrt(E) sigma = arctan(sqrt((wall - E)/E)) to 1e-15
        relative, in at most 8 Newton steps (one sin per step, one for E)."""
        sines = []
        real_sin = math.sin

        def counting_sin(x):
            sines.append(x)
            return real_sin(x)

        for delta in np.linspace(0.01, 0.7, 70):
            log_kappa = cf.critical_field_schrodinger(float(delta)).log_kappa
            sigma = -log_kappa
            wall = math.exp(log_kappa + float(cf.log_mu_of_y(np.array([sigma]))[0]))

            def step_root(E):
                return math.sqrt(E) * sigma - math.atan(math.sqrt((wall - E) / E))

            want = brentq(step_root, 1e-300, wall * (1.0 - 1e-14), xtol=1e-300, rtol=8.9e-16)
            sines.clear()
            with monkeypatch.context() as m:
                m.setattr(math, "sin", counting_sin)
                lo, hi = cf.bracket_E1(float(delta), log_kappa)
            assert lo == pytest.approx(want, rel=1e-15, abs=0.0), delta
            assert lo <= hi
            assert len(sines) - 1 <= 8, delta

    def test_non_finite_log_kappa_rejected(self):
        for log_kappa in (-math.inf, math.nan):
            with pytest.raises(ValueError, match="kappa"):
                cf.bracket_E1(0.1, log_kappa)

    @pytest.mark.parametrize("log_kappa", [-800.0, -1e-300])
    def test_extreme_kappa_gives_a_bracket(self, log_kappa):
        """kappa = e^-800 underflows, yet the upper side stays finite (it was
        0 * inf = nan); kappa just below 1 has a root too (brentq found no
        sign change there)."""
        lo, hi = cf.bracket_E1(0.1, log_kappa)
        assert 0.0 < lo <= hi < math.inf

    @pytest.mark.parametrize("log_kappa", [-1e100, -1e308])
    def test_absurd_log_kappa_rejected(self, log_kappa):
        # the s-grid of the upper side no longer resolves sigma there; at
        # -1e308 s^2 overflowed with a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="LOG_KAPPA_MAX"):
                cf.bracket_E1(0.1, log_kappa)

    def test_lattice_log_kappa_brackets(self, monkeypatch):
        # the log kappa of every Schrodinger pencil the benchmark's lattices
        # solve, the sandwich's two shifted couplings included, lies well
        # inside the accepted range and brackets delta^2
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        deltas = set()
        for workload in workloads.WORKLOADS:
            for entry, args in workloads.lattice(workload):
                if entry == "critical_field_schrodinger":
                    deltas.add(args[0])
                elif entry == "sandwich":
                    deltas.update((args[0] - args[0] ** 1.5, args[0] + args[0] ** 1.5))
        assert len(deltas) == 14
        for delta in sorted(deltas):
            res = cf.critical_field_schrodinger(delta)
            lo, hi = res.e1_bracket
            assert abs(res.log_kappa) < 1e-3 * cf.LOG_KAPPA_MAX
            assert lo <= delta * delta <= hi, delta

    def test_newton_cap_raises(self, monkeypatch):
        monkeypatch.setattr(cf, "STEP_ROOT_MAX_STEPS", 2)
        with pytest.raises(AccuracyError, match="did not converge"):
            cf.bracket_E1(0.1, -5.0)


class TestSchrodingerSolve:
    @pytest.mark.parametrize("delta", [0.01, 0.5])
    def test_eigensolve_count(self, monkeypatch, delta):
        solves = record_solves(monkeypatch)
        cf.critical_field_schrodinger(delta)
        assert len(solves) == 2
        assert [solve.path for solve in solves] == [INVERSE] * 2

    @pytest.mark.parametrize("delta", [0.03, 0.5])
    def test_pencil_matches_brentq_on_same_grid(self, delta):
        """By Sylvester the pencil's kappa is the root of delta^2 = E_1(kappa) on
        its own grid: a brentq root of the uncapped single-grid E_1 agrees within
        the pencil floor plus the oracle's own (the same float floor in E_1 and
        brentq's xtol)."""
        step, log_mu = pencil_grid(delta, 0.02)
        log_kappa, slope, floor = cf._pencil_log_kappa(delta, step, log_mu)

        def e1(lk):
            q = np.exp(lk + log_mu)
            return sturm_liouville.eigenvalue(
                *sturm_liouville.tridiagonal(np.ones(q.size + 1), q, step))[0]

        want = brentq(lambda lk: e1(lk) - delta * delta, log_kappa - 1.0, log_kappa + 1.0,
                      xtol=1e-12, rtol=8.9e-16)
        oracle = floor + 1e-12
        assert abs(log_kappa - want) <= floor + oracle
        # the floor divides by the eigenvector's slope dE_1/dlog kappa
        d = 1e-2
        assert slope == pytest.approx((e1(want + d) - e1(want - d)) / (2.0 * d), rel=1e-3)

    @pytest.mark.parametrize("delta, h", [(0.7, 0.1), (0.1, 0.2), (0.01, 0.5)])
    def test_pencil_within_floor_of_exact_bisection(self, delta, h):
        """Sturm-count bisection on A - sigma M at 50 digits, from the same float
        log mu samples: the float pencil's log kappa is within its floor."""
        mpmath = pytest.importorskip("mpmath")
        step, log_mu = pencil_grid(delta, h)
        log_kappa, _, floor = cf._pencil_log_kappa(delta, step, log_mu)
        with mpmath.workdps(50):
            diag = 2 / mpmath.mpf(step) ** 2 - mpmath.mpf(delta) ** 2
            off2 = 1 / mpmath.mpf(step) ** 4
            mu = [mpmath.exp(mpmath.mpf(x)) for x in log_mu]

            def below(lk):
                """Pencil eigenvalues below sigma = -e^lk (Sylvester: the
                negative pivots of A - sigma M)."""
                sigma, d, count = -mpmath.exp(lk), None, 0
                for m in mu:
                    d = diag - sigma * m - (off2 / d if d is not None else 0)
                    count += d < 0
                return count

            lo, hi = mpmath.mpf(log_kappa) - 1e-3, mpmath.mpf(log_kappa) + 1e-3
            assert below(lo) == 1 and below(hi) == 0
            while hi - lo > 1e-18:
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if below(mid) else (lo, mid)
            exact = float((lo + hi) / 2)
        assert abs(log_kappa - exact) <= floor

    def test_log_mu_sampled_once_per_root(self, monkeypatch):
        calls = []
        real = cf.log_mu_of_y

        def counting(y):
            calls.append(1)
            return real(y)

        monkeypatch.setattr(cf, "log_mu_of_y", counting)
        first = cf.critical_field_schrodinger(0.5)
        # one sampling for the grid pair, one for the analytic bracket
        assert len(calls) == 2
        # nothing is kept between calls: an identical call samples again
        calls.clear()
        assert cf.critical_field_schrodinger(0.5) == first
        assert len(calls) == 2

    @pytest.mark.parametrize("delta", [0.1, 0.5])
    def test_grid_convergence(self, delta):
        coarse = cf.critical_field_schrodinger(delta, h=0.02).log_BL
        fine = cf.critical_field_schrodinger(delta, h=0.01).log_BL
        assert abs(coarse - fine) <= 1e-8 * abs(fine)


class TestAsymptotic:
    def test_schrodinger_approaches_asymptotic_form(self, schrodinger_01):
        asym = cf.critical_field_asymptotic(0.1)
        # the loose check, which the leading form log(4 delta^2) + pi/delta
        # (off by 3 gamma_E - ln 2 = 1.04) also passed: see the O(kappa) test
        assert asym.log_BL == pytest.approx(schrodinger_01.log_BL, rel=0.12)
        assert asym.method == "asymptotic"
        assert asym.log_BL_error is None

    @pytest.mark.parametrize("delta", [0.1, 0.15, 0.2, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95])
    def test_closed_form_within_order_kappa(self, delta):
        """|log B_L - closed form| <= 1.5 kappa: the remainder is O(kappa), with
        R/kappa measured in [-1.10, -0.04]; the direct route above 0.7."""
        route = cf.critical_field_schrodinger if delta <= 0.7 else cf.critical_field_direct
        numeric = route(delta)
        asym = cf.critical_field_asymptotic(delta)
        assert abs(numeric.log_BL - asym.log_BL) <= 1.5 * math.exp(asym.log_kappa)

    def test_closed_form_as_written(self):
        asym = cf.critical_field_asymptotic(0.05)
        assert asym.log_BL == pytest.approx(
            math.pi / 0.05 + math.log(4.0 * 0.05**2) - (np.euler_gamma + math.log(2.0))
            - (2.0 / 0.05) * float(loggamma(1.0 + 0.1j).imag), abs=1e-13)
        assert asym.m_delta == pytest.approx(-math.exp(asym.log_kappa) / 0.05, rel=1e-15)
        assert 2.0 * (math.log(2.0) - math.log(-asym.m_delta)) == pytest.approx(
            asym.log_BL, abs=1e-13)

    @pytest.mark.parametrize("delta", [cf.DELTA_MIN, 0.05])
    def test_scaled_log_kappa_near_limit(self, delta):
        res = cf.critical_field_schrodinger(delta)
        assert 0.8 <= (-2.0 * delta / math.pi) * res.log_kappa <= 1.2


class TestStepRule:
    """The default step h(delta) of the Schrodinger pencil, checked against the
    closed form where it is exact (kappa < 1.1e-10) and against h = 0.01 above."""

    @pytest.mark.parametrize("delta", [0.01, 0.02, 0.03, 0.05, 0.07])
    def test_default_step_matches_closed_form(self, delta):
        res = cf.critical_field_schrodinger(delta)
        assert abs(res.log_BL - cf.critical_field_asymptotic(delta).log_BL) <= 5e-8

    def test_closed_form_rejects_the_fixed_step(self):
        # the check has teeth: at the old fixed step 0.02 the float floor fails it
        res = cf.critical_field_schrodinger(0.01, h=0.02)
        assert abs(res.log_BL - cf.critical_field_asymptotic(0.01).log_BL) > 5e-8

    @pytest.mark.parametrize("delta", [0.1, 0.15, 0.2, 0.31, 0.5, 0.7])
    def test_default_step_matches_a_fine_grid(self, delta):
        fine = cf.critical_field_schrodinger(delta, h=0.01).log_BL
        assert abs(cf.critical_field_schrodinger(delta).log_BL - fine) <= 2e-8

    def test_step_rule_stays_within_its_clamps(self):
        deltas = np.linspace(cf.DELTA_MIN, cf.DELTA_MAX_SCHRODINGER, 401)
        steps = np.array([cf._step(d) for d in deltas])
        assert np.all(steps >= 0.02) and np.all(steps <= cf.STEP_MAX)
        assert np.all(np.diff(steps) <= 0.0)
        assert cf._step(0.7) == 0.02 and cf._step(0.01) == cf.STEP_MAX

    def test_explicit_step_overrides_the_rule(self, monkeypatch):
        seen = []
        real = cf._log_mu_grids
        monkeypatch.setattr(cf, "_log_mu_grids", lambda Y, h: seen.append(h) or real(Y, h))
        cf.critical_field_schrodinger(0.3, h=0.05)
        cf.critical_field_schrodinger(0.3)
        cf.sandwich(0.045)
        cf.sandwich(0.045, h=0.03)
        d_minus, d_plus = 0.045 - 0.045**1.5, 0.045 + 0.045**1.5
        assert seen == [0.05, cf._step(0.3), cf._step(d_plus), cf._step(d_minus), 0.03, 0.03]


class TestHhhBounds:
    def test_lower_bound_values(self):
        nu40 = 40.0 / 137.037
        lower, upper = cf.hhh_bounds(nu40)
        assert lower == pytest.approx(4.0 / (5.0 * nu40**2), rel=1e-14)
        assert lower == pytest.approx(9.3896, abs=2e-4)
        assert upper is None  # nu^2 < 2/3: no Gaussian branch

    def test_gaussian_branch_at_large_coupling(self):
        lower, upper = cf.hhh_bounds(0.9)
        assert upper == pytest.approx(18.0 * math.pi * 0.81 / (3.0 * 0.81 - 2.0) ** 2, rel=1e-14)
        assert upper == pytest.approx(247.725, abs=1e-2)
        assert lower < upper

    def test_validation(self):
        with pytest.raises(ValueError):
            cf.hhh_bounds(1.0)


class TestSandwich:
    def test_bracket_and_analytic_coherence(self):
        sw = cf.sandwich(0.04)
        assert sw.lower_logB <= sw.upper_logB
        assert math.log(sw.analytic_lower) <= sw.upper_logB
        assert sw.analytic_upper_gaussian is None
        assert sw.delta_minus == pytest.approx(0.04 - 0.04**1.5)
        assert sw.delta_plus == pytest.approx(0.04 + 0.04**1.5)
        assert sw.lower_tesla_log10 <= sw.upper_tesla_log10
        assert sw.lower_tesla == pytest.approx(
            math.exp(sw.lower_logB) * 4.4e9, rel=1e-9)

    def test_coupling_above_nu_bar_rejected(self):
        with pytest.raises(ValueError):
            cf.sandwich(0.1)

    def test_coupling_below_floor_rejected(self):
        with pytest.raises(ValueError):
            cf.sandwich(0.005)


class TestGapConstants:
    def test_nu_bar_root(self):
        nb = cf.nu_bar()
        assert nb == pytest.approx(NU_BAR_REF, abs=1e-10)
        assert 0.05 < nb < 0.06
        assert 2.0 * (nb + math.sqrt(nb)) == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-11)

    def test_gap_function_values(self):
        assert cf.d_of_delta(0.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert abs(cf.d_of_delta(1.0 - math.sqrt(2.0) / 2.0)) < 1e-14


def window_log_kappa(delta, step):
    """(lower, upper) log kappa edges of the window of the lowest eigenvalue -kappa."""
    lo, hi = cf._window(delta, 1.0, step)
    return math.log(-hi), math.log(-lo)


#: paths of a solve whose window held the lowest eigenvalue: the certified
#: inverse iteration, or the windowed bisection its failed certificate runs
HELD = (INVERSE, ("v",))


class TestBisectionWindow:
    """Both relative-accuracy pencils solve inside a window around the
    closed-form log kappa; a miss would fall back to select="i"."""

    @pytest.mark.parametrize("h", [None, 0.02, 0.1, 0.5])
    @pytest.mark.parametrize("delta", [0.01, 0.0355, 0.0545, 0.1, 0.2, 0.33, 0.5, 0.7])
    def test_window_holds_on_the_schrodinger_range(self, monkeypatch, delta, h):
        solves = record_solves(monkeypatch)
        res = cf.critical_field_schrodinger(delta, h=h)
        assert len(solves) == 2 and all(solve.path in HELD for solve in solves)
        lower, upper = window_log_kappa(delta, h or cf._step(delta))
        assert lower < res.log_kappa < upper

    @pytest.mark.parametrize("delta", [0.05, 0.3, 0.7, 0.9, 0.99])
    def test_window_holds_on_the_direct_range(self, monkeypatch, delta):
        solves = record_solves(monkeypatch)
        res = cf.m_delta(delta)
        assert solves and all(solve.path in HELD for solve in solves)
        lower, upper = window_log_kappa(delta, 0.025)
        assert lower < math.log(-delta * res) < upper

    def test_window_edges_follow_the_closed_form(self):
        # the continuum log kappa lies 0 to 0.6 kappa above the closed form and
        # a grid's above the continuum's, so the window reaches WINDOW_FLOOR
        # below the closed form and the grid and continuum offsets above it
        lo, hi = cf._window(0.2, 3.0, 0.1)
        closed = cf.critical_field_asymptotic(0.2).log_kappa
        assert math.log(-hi / 3.0) == pytest.approx(closed - cf.WINDOW_FLOOR, abs=1e-12)
        assert math.log(-lo / 3.0) == pytest.approx(
            closed + cf.WINDOW_GRID * 0.01 + 0.6 * math.exp(closed) + cf.WINDOW_FLOOR, abs=1e-12)


#: the lattice pencils whose inverse iteration does not certify, as (delta,
#: h): both grids of delta = 0.01 at h = 0.02 (18 707 and 37 415 rows, where
#: the float floor of log B_L is 2e-5); they fall back to the windowed bisection
UNCERTIFIED = {(0.01, 0.02)}


class TestCertifiedKernel:
    """The lowest eigenvalue of both pencils comes from inverse iteration,
    certified by factorisations at rho -+ c |rho|, c = CERTIFICATE_WIDTH."""

    @pytest.mark.parametrize("route, h", [("direct", None), ("schrodinger", None),
                                          ("schrodinger", 0.02), ("schrodinger", 0.1),
                                          ("schrodinger", 0.5)])
    def test_certified_values_bracket_the_bisection(self, monkeypatch, route, h):
        """Every solve of the direct lattice (48 deltas on [0.05, 0.99]) and of
        the Schrodinger one (36 on [0.01, 0.7]) at the step h certifies, but
        for UNCERTIFIED, and its value lies within c |rho| of the index
        selection's bisection of the same matrix."""
        solves = record_solves(monkeypatch)
        matrices = []
        recorded = sturm_liouville.eigenvalue

        def capturing(diag, offdiag, **kwargs):
            found = recorded(diag, offdiag, **kwargs)
            matrices.append((diag, offdiag, found[0]))
            return found

        monkeypatch.setattr(sturm_liouville, "eigenvalue", capturing)
        if route == "direct":
            deltas, solve = np.linspace(0.05, 0.99, 48), cf.m_delta
        else:
            deltas = np.linspace(0.01, 0.7, 36)
            solve = lambda delta: cf.critical_field_schrodinger(delta, h=h)
        uncertified = []
        for delta in deltas:
            start = len(solves)
            solve(float(delta))
            uncertified += [(round(float(delta), 4), h) for s in solves[start:]
                            if s.path != INVERSE]
        monkeypatch.undo()
        assert len(solves) == len(matrices) == 2 * len(deltas)
        assert set(uncertified) <= UNCERTIFIED
        assert len(uncertified) == 2 * len(set(uncertified))  # both grids of such a pencil
        for (diag, offdiag, value), s in zip(matrices, solves):
            bisected = sturm_liouville.eigenvalue(diag, offdiag)[0]
            # a fallback bisects inside the window, within a few ulp of the index selection
            tol = (sturm_liouville.CERTIFICATE_WIDTH * abs(value) if s.path == INVERSE
                   else 4.0 * np.spacing(abs(value)))
            assert abs(value - bisected) <= tol, s

    @pytest.mark.parametrize("route, delta", [(cf.critical_field_schrodinger, 0.0355),
                                              (cf.critical_field_schrodinger, 0.33),
                                              (cf.critical_field_direct, 0.3)])
    def test_log_BL_within_the_certificate_of_the_index_selection(self, monkeypatch, route,
                                                                  delta):
        # each grid's value lies within c |rho| of the index selection's, so
        # log B_L ~ -2 log|rho|, extrapolated as (4 fine - coarse)/3, moves by
        # at most 2 (4 + 1)/3 c
        certified = route(delta).log_BL
        monkeypatch.setattr(cf, "_window", lambda *args: None)
        bound = 10.0 / 3.0 * sturm_liouville.CERTIFICATE_WIDTH
        assert abs(certified - route(delta).log_BL) <= bound
