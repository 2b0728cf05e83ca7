"""Tests for the nonlinear fixed point defining the lowest level."""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.sparse import diags
from scipy.sparse.linalg import eigsh
from scipy.special import erfcx

from landaucrit import critical_field as cf
from landaucrit import groundstate, sturm_liouville
from landaucrit.critical_field import critical_field_direct
from landaucrit.errors import AccuracyError, TruncationError
from landaucrit.groundstate import FixedPointResult, ground_state_lambda, ground_state_per_ell
from landaucrit.potentials import PotentialSpec, a_ell_grid

from _reference import (CENTRE, INVERSE, RESIDUAL_FLOOR, T_of_lambda, bisected_ground_level,
                        index_level, phi_on, record_factorisations, record_solves)


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
        assert 0 < res.domain_error <= groundstate.DOMAIN_TOL

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
        # every domain solves on n = odd_points(T, h) and 2n + 1 points, and
        # centres on (n - 1)/2; the next doubles z, T -> asinh(2 sinh T), at
        # the same step h
        grids = []

        class RecordingGrid(groundstate._Grid):
            def __init__(self, spec, T, n, **kwargs):
                grids.append((T, n))
                super().__init__(spec, T, n, **kwargs)

        monkeypatch.setattr(groundstate, "_Grid", RecordingGrid)
        # a first domain of |z| <= 10, too short for the bracket to certify
        monkeypatch.setattr(groundstate, "C_FIELD", 1.0)
        monkeypatch.setattr(groundstate, "C_COULOMB", 1.0)
        solves, factored = record_solves(monkeypatch), record_factorisations(monkeypatch)
        res = ground_state_lambda(PotentialSpec(0.5, 1.0), h=0.05)
        # three grids per domain: the coarse and fine ones, and the nested
        # half-rows grid of the centring pass
        assert len(grids) >= 6 and len(grids) == 3 * res.iterations // 2
        # every domain runs the same steps: a loose centring pass places its
        # coarse level's window, and both levels are certified inside their
        # windows, the fine one's centred on the coarse level
        assert solves.steps == ["centre", "inverse", "inverse"] * (len(grids) // 3)
        # each level factors three times: its window guard and its
        # certificate's two; the degeneracy test, far from -1, factors
        # nothing.  The first domain's coarse bracket fails on its
        # Neumann side (with the Dirichlet check at lo), and its fine bracket
        # is not tried; on the second domain each bracket factors its Neumann
        # side only, since the certificate's top lies below its Dirichlet side
        assert len(factored) == 3 * res.iterations + 2 + 2
        coarse, fine, half = grids[0::3], grids[1::3], grids[2::3]
        for (T, n), (T_fine, n_fine), (T_half, n_half) in zip(coarse, fine, half):
            assert n == sturm_liouville.odd_points(T, 0.05) and n % 2 == 1
            assert (T_fine, n_fine) == (T, 2 * n + 1)
            assert (T_half, n_half) == (T, (n - 1) // 2)
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
            def __init__(self, spec, T, n, **kwargs):
                grids.append((T, n))
                self.order = len(grids)
                super().__init__(spec, T, n, **kwargs)

            def level(self, centre):
                if self.order <= 2:
                    return forced[self.order - 1]
                return super().level(centre)

        monkeypatch.setattr(groundstate, "_Grid", RecordingGrid)
        res = ground_state_lambda(PotentialSpec(0.5, 1.0))
        assert res.degenerate == degenerate
        if degenerate:
            # one domain: its two levels and its half-rows grid
            assert res.lam == -1.0 and res.iterations == 2 and len(grids) == 3
        else:
            # one domain more than the unforced call, within DOMAIN_TOL of it
            assert res.lam == pytest.approx(ground_state_lambda(PotentialSpec(0.5, 1.0)).lam,
                                            abs=groundstate.DOMAIN_TOL)

    def test_wrong_level_fails_the_residual_check(self, monkeypatch):
        # a level off by 1e-3 on every grid extrapolates like a true one;
        # the Dirichlet side of its bracket exposes it
        class ShiftedGrid(groundstate._Grid):
            def level(self, centre):
                return super().level(centre) + 1e-3

        monkeypatch.setattr(groundstate, "_Grid", ShiftedGrid)
        with pytest.raises(AccuracyError):
            ground_state_lambda(PotentialSpec(0.5, 1.0))

    @pytest.mark.parametrize("shift", [-1e-3, 1e-3])
    @pytest.mark.parametrize("nu,B,ell", [(0.5, 1.0, 0), (0.1, 1e8, 0), (0.3, 2.0, 3),
                                          (0.65, 50.0, 0)])
    def test_wrong_level_raises_on_the_first_domain(self, monkeypatch, nu, B, ell, shift):
        # a level 1e-3 above or below the grid's own lies outside its
        # bracket: the Dirichlet side raises on the first domain's two grids,
        # where a failing bracket would double the domain six times
        grids = []

        class ShiftedGrid(groundstate._Grid):
            def level(self, centre):
                grids.append(self.n)
                return super().level(centre) + shift

        monkeypatch.setattr(groundstate, "_Grid", ShiftedGrid)
        with pytest.raises(AccuracyError):
            ground_state_lambda(PotentialSpec(nu, B, ell))
        assert len(grids) == 2

    def test_eigensolve_count(self, monkeypatch):
        # one solve per level, each certified; the centring pass before them
        # bisects, and is not a level
        calls, solves = record_eigensolves(monkeypatch), record_solves(monkeypatch)
        res = ground_state_lambda(PotentialSpec(0.3, 2.0))
        assert [solve.path for solve in solves] == [CENTRE, INVERSE, INVERSE]
        assert len(calls) == 1 and res.iterations == 2

    @pytest.mark.parametrize("nu,B,ell", [(0.2, 0.4, 1), (0.3, 2.0, 0), (0.65, 50.0, 3),
                                          (0.1, 1e8, 0), (0.05, 1e-3, 0), (0.6, 1e-3, 3)])
    def test_every_solve_after_the_first_is_windowed(self, monkeypatch, nu, B, ell):
        # the first solve, a loose index selection, centres the first level's
        # window; every level, the first included, is then certified by
        # inverse iteration inside its window, with no miss
        solves = record_solves(monkeypatch)
        res = ground_state_lambda(PotentialSpec(nu, B, ell))
        assert solves.steps == ["centre"] + ["inverse"] * res.iterations

    def test_iterations_count_a_missed_window(self, monkeypatch):
        # a window far narrower than the centring pass's accuracy and the
        # coarse-to-fine shift misses; a certified but empty one costs a
        # second eigen-solve, the index selection, and iterations counts it
        spec = PotentialSpec(0.3, 2.0)
        want = ground_state_lambda(spec).lam
        monkeypatch.setattr(groundstate, "LEVEL_WINDOW", 1e-13)
        solves = record_solves(monkeypatch)
        res = ground_state_lambda(spec)
        levels = [solve.path for solve in solves if solve.path != CENTRE]
        assert res.iterations == sum(map(len, levels))
        assert ("v", "i") in levels and INVERSE not in levels
        assert res.lam == pytest.approx(want, rel=sturm_liouville.CERTIFICATE_WIDTH)

    def test_nothing_outlives_a_call(self, monkeypatch):
        # the same call twice does the same work: one potential pass of
        # 4n + 3 points per domain, shared by its two grids, and the same
        # eigen-solves
        calls = record_eigensolves(monkeypatch)
        points = []
        real = groundstate.a_ell_grid

        def recording(spec, z):
            points.append(np.size(z))
            return real(spec, z)

        monkeypatch.setattr(groundstate, "a_ell_grid", recording)
        spec = PotentialSpec(0.3, 2.0)
        first = ground_state_lambda(spec)
        work = (len(calls), list(points))
        calls.clear()
        points.clear()
        assert ground_state_lambda(spec) == first
        assert (len(calls), points) == work
        assert 2 * len(points) == first.iterations and points[-1] == 2 * first.n + 1

    def test_degenerate_call_is_one_domain(self, monkeypatch):
        # the extrapolated level of the first domain is <= -1: the pass that
        # centres the coarse level, and one factorisation from its lower
        # bound in place of both levels
        calls = record_eigensolves(monkeypatch)
        res = ground_state_lambda(PotentialSpec(0.85, 1e4))
        assert res.degenerate
        assert calls == [True]
        assert res.iterations == 1

    @pytest.mark.parametrize("nu,B,ell", [(0.3, 2.0, 0), (0.3, 2.0, 2), (0.65, 50.0, 0)])
    def test_level_matches_brentq_on_same_grid(self, nu, B, ell):
        # the root of Phi is eigenvalue n + 1 of the staggered Dirac matrix
        T = math.asinh(math.sqrt(B) * 60.0)
        grid = groundstate._Grid(PotentialSpec(nu, B, ell), T, sturm_liouville.odd_points(T, 0.025))
        level = index_level(grid)
        want = brentq(lambda lam: phi_on(grid, lam)[0], -1.0, 1.0, xtol=1e-13, rtol=8.9e-16)
        assert abs(level - want) <= 1e-10
        phi, floor = phi_on(grid, level)
        assert abs(phi) <= RESIDUAL_FLOOR * floor

    def test_deep_supercritical_is_degenerate(self):
        res = ground_state_lambda(PotentialSpec(0.5, 1e6))
        assert res.degenerate
        assert res.lam == -1.0

    def test_degenerate_flag_implies_minus_one(self):
        res = ground_state_lambda(PotentialSpec(0.9, 500.0))
        if res.degenerate:
            assert res.lam == -1.0
        else:
            assert 0 < res.domain_error <= groundstate.DOMAIN_TOL


def first_domain(spec, h=0.025):
    """(the coarse level by the index selection, the coarse grid, the fine
    grid, the half-rows grid's loose level) of the first domain."""
    T = math.asinh(math.sqrt(spec.B) * groundstate._default_domain(spec))
    n = sturm_liouville.odd_points(T, h)
    coarse = groundstate._Grid(spec, T, n)
    return (index_level(coarse), coarse, groundstate._Grid(spec, T, 2 * n + 1),
            groundstate._Grid(spec, T, (n - 1) // 2).centring())


class TestDegenerateDecision:
    """One factorisation of the fine grid's T(x) - x, x = (c - 3)/4, decides
    what the extrapolation of its level with the coarse level c decides."""

    @pytest.mark.parametrize("ell", [0, 1])
    @pytest.mark.parametrize("nu", [0.3, 0.65])
    def test_agrees_with_the_extrapolated_level_near_the_critical_field(self, nu, ell):
        B_L = math.exp(critical_field_direct(nu).log_BL)
        for r in (0.99, 0.999, 1.001, 1.01):
            coarse, _, fine, _ = first_domain(PotentialSpec(nu, r * B_L, ell))
            want = sturm_liouville.richardson_step(coarse, fine.level(coarse))[0] <= -1.0
            assert fine.degenerate(coarse) == want, r
            # past B_L the lowest level is degenerate
            assert want or r < 1.0 or ell > 0

    @pytest.mark.parametrize("nu,B,ell", [(0.85, 1e4, 0), (0.9, 1e4, 0), (0.65, 200.0, 0),
                                          (0.75, 100.0, 0), (0.75, 200.0, 0), (0.75, 200.0, 1),
                                          (0.3, 1e8, 0)])
    def test_agrees_on_degenerate_calls(self, nu, B, ell):
        # the zspace_scan lattice's degenerate calls, and one far past B_L
        coarse, _, fine, _ = first_domain(PotentialSpec(nu, B, ell))
        assert sturm_liouville.richardson_step(coarse, fine.level(coarse))[0] <= -1.0
        assert fine.degenerate(coarse)

    @pytest.mark.parametrize("nu,B,ell", [(0.85, 1e4, 0), (0.9, 1e4, 0), (0.65, 200.0, 0),
                                          (0.75, 100.0, 0), (0.75, 200.0, 0), (0.75, 200.0, 1),
                                          (0.3, 1.001, None), (0.3, 1.01, None),
                                          (0.65, 1.001, None), (0.65, 1.01, None)])
    def test_half_rows_lower_bound_decides_as_the_coarse_level(self, nu, B, ell):
        # every domain decides from its half-rows centre c, from c - w or
        # c - w/10, each certified below the coarse level by a Sturm count,
        # what the coarse level itself decides: on the zspace_scan lattice's
        # degenerate calls, and just past B_L (B given as B/B_L there, at ell
        # 0 and 1)
        specs = [PotentialSpec(nu, B, ell)] if ell is not None else [
            PotentialSpec(nu, B * math.exp(critical_field_direct(nu).log_BL), ell)
            for ell in (0, 1)]
        for spec in specs:
            level, coarse, fine, centre = first_domain(spec)
            settled = groundstate._settles_degenerate(coarse, fine, centre)
            assert settled == fine.degenerate(level) == ground_state_lambda(spec).degenerate, spec

    def test_neither_lower_bound_suffices_alone(self):
        # (decides, certified) from c - w and from c - w/10 at B/B_L 1.001,
        # ell 0: at nu 0.3 c - w lies too far below the coarse level to
        # decide, and c - w/10 settles the call; at nu 0.65 c - w settles it,
        # and c - w/10 lies above the coarse level, where the count refuses it
        found = {}
        for nu in (0.3, 0.65):
            spec = PotentialSpec(nu, 1.001 * math.exp(critical_field_direct(nu).log_BL))
            level, coarse, fine, centre = first_domain(spec)
            width = groundstate._half_width(centre)
            found[nu] = [(fine.degenerate(lower), coarse.below(lower))
                         for lower in (centre - width, centre - 0.1 * width)]
            assert coarse.below(centre - 0.1 * width) == (centre - 0.1 * width < level)
        assert found == {0.3: [(False, True), (True, True)], 0.65: [(True, True), (True, False)]}

    @pytest.mark.parametrize("coarse", [-1.5, -1.05])
    def test_no_decision_where_the_g_block_is_not_negative_definite(self, coarse):
        # a forced coarse level puts 1 + x + nu a below 0 at the ends; T(x) - x
        # is then not positive definite although the level is 0.71, so the
        # factorisation must not decide
        spec = PotentialSpec(0.5, 1.0)
        fine = first_domain(spec)[2]
        forced = groundstate._Grid(spec, math.asinh(groundstate._default_domain(spec)), fine.n)
        x = 0.25 * (coarse - 3.0)
        assert not forced._above(forced._pencil(x), x - 1.0)
        assert not forced.degenerate(coarse)
        # the window around the forced centre, clipped at -1 - min(nu a)/2,
        # must not invert: it is certified there but holds no level, and the
        # index selection finds the level
        lo, hi = forced.window(coarse)
        assert lo == -1.0 - 0.5 * forced.nu_a[[0, -1]].min() < hi
        assert forced.level(coarse) > 0.7 and forced.solves == 2


def check_lattice():
    """nu 0.05-0.9, B 1e-3-1e8 and ell 0, 1, 3 (144 specs), and B/B_L in
    {0.99, 0.999, 0.9998, 0.99999, 1.001, 1.01} at nu 0.3 and 0.65, ell 0
    and 1 (24)."""
    specs = [PotentialSpec(nu, B, ell) for nu in (0.05, 0.1, 0.3, 0.5, 0.65, 0.9)
             for B in (1e-3, 1e-2, 0.1, 1.0, 10.0, 1e3, 1e5, 1e8) for ell in (0, 1, 3)]
    for nu in (0.3, 0.65):
        B_L = math.exp(critical_field_direct(nu).log_BL)
        specs += [PotentialSpec(nu, r * B_L, ell)
                  for r in (0.99, 0.999, 0.9998, 0.99999, 1.001, 1.01) for ell in (0, 1)]
    return specs


class TestCertifiedLevel:
    """Every level by the kernel's certified inverse iteration inside its
    window, each domain's coarse window centred by a loose pass; bisection is
    the fallback, so the result is the bisected level's
    (``bisected_ground_level``)."""

    def test_check_lattice_matches_the_bisection_oracle(self, monkeypatch):
        # every non-degenerate call centres its coarse window by a loose pass
        # and certifies both levels; a degenerate one is settled by the pass
        # and a factorisation.  At B/B_L 0.99999, ell 0, both grids' levels
        # lie below -1 though their extrapolation lies above: windows whose
        # bottom reaches -1 - min(nu a)/2 certify them too
        solves = record_solves(monkeypatch)
        below = []
        for spec in check_lattice():
            start = len(solves)
            res = ground_state_lambda(spec)
            paths = [solve.path for solve in solves[start:]]
            lam, degenerate = bisected_ground_level(spec)
            assert abs(res.lam - lam) <= 1e-10, spec
            assert res.degenerate == degenerate, spec
            if degenerate:
                assert (paths, res.iterations) == ([CENTRE], 1), spec
                continue
            assert (paths, res.iterations) == ([CENTRE, INVERSE, INVERSE], 2), spec
            if res.lam < -0.9999:
                coarse, _, fine, _ = first_domain(spec)
                if index_level(fine) < -1.0:
                    assert coarse < index_level(fine) < -1.0 < res.lam, spec
                    below.append(spec)
        assert len(below) == 2
        assert all(spec.ell == 0 and spec.B > 100.0 for spec in below)

    def test_half_rows_centre_windows_the_coarse_level(self):
        # the loose level of the nested grid at step 2h, whose midpoints and
        # nodes are the coarse grid's nodes, lies within 0.26 of the
        # half-width w from the coarse level on the check lattice (asserted
        # to 0.3 w), so its window holds that level wherever a level is solved
        for spec in check_lattice():
            if bisected_ground_level(spec)[1]:
                continue
            level, coarse, _, centre = first_domain(spec)
            lo, hi = coarse.window(centre)
            assert lo < level <= hi, spec
            assert abs(level - centre) <= 0.3 * groundstate._half_width(centre), spec

    def test_unsettled_iteration_falls_back_to_the_bisection(self, monkeypatch):
        # one inverse step does not certify: each level is bisected inside
        # its window, as before inverse iteration, to a few ulp of the index
        # selection
        spec = PotentialSpec(0.3, 2.0, 1)
        want, _ = bisected_ground_level(spec)
        monkeypatch.setattr(sturm_liouville, "MAX_INVERSE_STEPS", 1)
        solves = record_solves(monkeypatch)
        res = ground_state_lambda(spec)
        assert [solve.path for solve in solves] == [CENTRE, ("v",), ("v",)]
        assert abs(res.lam - want) <= 8.0 * np.spacing(want)

    def test_shift_converging_to_the_next_eigenvalue_below_falls_back(self, monkeypatch):
        # a window whose bottom lies just above -1: the shift is closer to
        # eigenvalue n, the top of the lower continuum, than to the level,
        # the iteration converges there, below the window, and the level is
        # bisected inside the window
        spec = PotentialSpec(0.5, 1.0)
        want, _ = bisected_ground_level(spec)
        monkeypatch.setattr(groundstate._Grid, "window",
                            lambda self, centre: (-1.0 + 1e-6, centre + 1e-3))
        solves = record_solves(monkeypatch)
        res = ground_state_lambda(spec)
        assert [solve.path for solve in solves] == [CENTRE, ("v",), ("v",)]
        assert abs(res.lam - want) <= 8.0 * np.spacing(want)

    @pytest.mark.parametrize("miss, path", [(10.0, ("i",)), (-10.0, ("v", "i"))],
                             ids=["above", "below"])
    def test_missed_centring_falls_back_to_the_index_selection(self, monkeypatch, miss, path):
        # a loose centre 10 windows off: above the level the Schur complement
        # at the window's bottom is not positive definite; below, the window
        # is certified but empty.  The coarse level is then the index
        # selection's, and the fine one is certified around it
        spec = PotentialSpec(0.3, 2.0)
        want, _ = bisected_ground_level(spec)
        real = sturm_liouville._centre
        monkeypatch.setattr(sturm_liouville, "_centre", lambda *args: real(*args)
                            + miss * groundstate.LEVEL_WINDOW)
        solves = record_solves(monkeypatch)
        res = ground_state_lambda(spec)
        assert [solve.path for solve in solves] == [CENTRE, path, INVERSE]
        assert res.iterations == len(path) + 1
        assert abs(res.lam - want) <= sturm_liouville.CERTIFICATE_WIDTH * abs(want)


def first_grid(spec, L=None, h=0.025):
    """The coarse grid of the first domain (or of |z| <= L) and its level."""
    T = math.asinh(math.sqrt(spec.B) * (groundstate._default_domain(spec) if L is None else L))
    grid = groundstate._Grid(spec, T, sturm_liouville.odd_points(T, h))
    return grid, index_level(grid)


def neumann_level(grid):
    """Eigenvalue n - 1 of the Dirac matrix without its two end g rows."""
    diag, offdiag = grid.dirac()
    return sturm_liouville.eigenvalue(diag[1:-1], offdiag[1:-1], index=grid.n - 1)[0]


class TestDomainBracket:
    """The level of a longer grid lies between the Neumann and the Dirichlet
    level of the truncated one, and each grid certifies that bracket."""

    @pytest.mark.parametrize("ell", [0, 3])
    @pytest.mark.parametrize("B", [1e-3, 1.0, 1e3, 1e8])
    @pytest.mark.parametrize("nu", [0.05, 0.3, 0.65, 0.9])
    def test_neumann_below_dirichlet(self, nu, B, ell):
        grid, level = first_grid(PotentialSpec(nu, B, ell))
        if level <= -1.0:
            return  # degenerate: no level to bracket
        width = grid.domain_width(level)
        assert width == pytest.approx(0.5 * groundstate.DOMAIN_TOL, rel=1e-7)
        # both levels are bisected to a few ulp, and on the first domain the
        # Neumann level lies less than 1e-13 below the Dirichlet one
        assert level - 0.5 * width < neumann_level(grid) <= level + 4.0 * np.spacing(abs(level))

    @pytest.mark.parametrize("L", [4.0, 8.0])
    def test_longer_grid_lies_between_neumann_and_dirichlet(self, L):
        # the same nodes continued k steps past each end: on a short domain
        # the bracket is wide (2.4e-2 at L = 4), and the longer grid's level
        # falls inside it, far from both ends
        spec = PotentialSpec(0.5, 1.0)
        grid, level = first_grid(spec, L)
        T = math.asinh(L)
        k = grid.n // 2
        longer = groundstate._Grid(spec, T + k * grid.h, grid.n + 2 * k)
        assert longer.h == pytest.approx(grid.h, rel=1e-14)
        inside = index_level(longer)
        assert neumann_level(grid) < inside < level
        assert grid.domain_width(level) == math.inf  # far wider than DOMAIN_TOL

    def test_refined_domain_lies_in_the_reported_bracket(self, monkeypatch):
        # one domain doubling and half the step move lam by less than the
        # certified domain error (the step alone moves it by ~1e-10)
        spec = PotentialSpec(0.3, 2.0)
        res = ground_state_lambda(spec)
        assert 0.0 < res.domain_error <= groundstate.DOMAIN_TOL
        monkeypatch.setattr(groundstate, "C_FIELD", 2.0 * groundstate.C_FIELD)
        monkeypatch.setattr(groundstate, "C_COULOMB", 2.0 * groundstate.C_COULOMB)
        refined = ground_state_lambda(spec, h=0.0125)
        assert refined.L == pytest.approx(2.0 * res.L, rel=1e-12)
        assert abs(refined.lam - res.lam) <= res.domain_error

    def test_outside_condition_failure_doubles_the_domain(self, monkeypatch):
        # 1 - nu a = 0 at the first domain's end samples, below the level
        # 0.71: the fine grid's bracket is not certified there, and the call
        # doubles the domain.  The coarse grid reads the odd samples, so its
        # bracket certifies
        points = []
        real = groundstate.a_ell_grid

        def deep_ends(spec, z):
            a = real(spec, z)
            if not points:
                a[[0, -1]] = 1.0 / spec.nu
            points.append(np.size(z))
            return a

        spec = PotentialSpec(0.5, 1.0)
        want = ground_state_lambda(spec)
        monkeypatch.setattr(groundstate, "a_ell_grid", deep_ends)
        factored = record_factorisations(monkeypatch)
        res = ground_state_lambda(spec)
        assert len(points) == 2
        # three per level (the window guard and the certificate's two); the
        # coarse bracket's Neumann side on the first domain, where the fine
        # bracket fails before it factors, and both Neumann sides on the
        # second, whose Dirichlet sides the certificates' tops settle
        assert len(factored) == 3 * 4 + 1 + 2
        assert res.L == pytest.approx(2.0 * want.L, rel=1e-12)
        assert res.lam == pytest.approx(want.lam, abs=groundstate.DOMAIN_TOL)

    @pytest.mark.parametrize("delta", [0.05, 0.3, 0.9])
    def test_threshold_bracket_holds_its_neumann_value(self, monkeypatch, delta):
        # the direct route's first coarse grid certifies m -+ CERTIFICATE_WIDTH
        # |m|, with m certified in its window or bisected without one, and
        # its Neumann threshold lies inside, less than 1e-11 |m| below the
        # bisected m (the certified one lies within CERTIFICATE_WIDTH |m| of it)
        spec = PotentialSpec(delta, 1.0)
        T = math.asinh(cf.DIRECT_PAD * math.exp(math.pi / (2.0 * delta)))
        grid = groundstate._Grid(spec, T, sturm_liouville.odd_points(T, 0.025))
        for window in (cf._window(delta, 1.0 / delta, 0.025), None):
            m, width = grid.threshold(window)
            assert width == pytest.approx(2.0 * sturm_liouville.CERTIFICATE_WIDTH * abs(m),
                                          rel=1e-9)
        _, offdiag, neumann_diag = grid._pencil(-1.0)
        neumann = sturm_liouville.eigenvalue(neumann_diag, offdiag)[0]
        assert m - 1e-11 * abs(m) < neumann <= m + 4.0 * np.spacing(abs(m))
        # a bisected value whose bracket tops out below m does not certify:
        # the Dirichlet pencil less that top is positive definite
        low = m - 2.5 * sturm_liouville.CERTIFICATE_WIDTH * abs(m)
        monkeypatch.setattr(sturm_liouville, "eigenvalue", lambda *args, **kwargs: (low, None, 1))
        assert grid.threshold(None) == (low, math.inf)

    def test_longer_grid_threshold_lies_between_neumann_and_dirichlet(self):
        # on |z| <= e^(pi/2delta) the threshold's bracket (-0.114, -0.065]
        # is wide, and the threshold of the grid continued k steps past each
        # end falls inside it, far from both ends
        spec = PotentialSpec(0.5, 1.0)
        T = math.asinh(math.exp(math.pi))
        grid = groundstate._Grid(spec, T, sturm_liouville.odd_points(T, 0.025))
        m, width = grid.threshold(None)
        assert width == math.inf  # far wider than 2 CERTIFICATE_WIDTH |m|
        k = grid.n // 2
        longer = groundstate._Grid(spec, T + k * grid.h, grid.n + 2 * k)
        assert longer.h == pytest.approx(grid.h, rel=1e-14)
        _, offdiag, neumann_diag = grid._pencil(-1.0)
        neumann = sturm_liouville.eigenvalue(neumann_diag, offdiag)[0]
        assert neumann < longer.threshold(None)[0] < m
        # the wide bracket meets the threshold's three conditions
        lo, hi = neumann - 1e-3 * abs(m), m + 1e-3 * abs(m)
        assert lo < -grid.nu_a[[0, -1]].max()
        pencil = grid._pencil(-1.0)
        assert grid._above(pencil, lo, neumann=True) and not grid._above(pencil, hi)

    def test_truncation_error_names_the_route_and_its_last_value(self, monkeypatch):
        # first domains too short to certify, and no doubling allowed: each
        # route names itself, its last extrapolated value and the doublings
        monkeypatch.setattr(groundstate, "C_FIELD", 1.0)
        monkeypatch.setattr(groundstate, "C_COULOMB", 1.0)
        monkeypatch.setattr(groundstate, "MAX_DOUBLINGS", 0)
        with pytest.raises(TruncationError) as err:
            ground_state_lambda(PotentialSpec(0.5, 1.0))
        (lam,) = err.value.last_values
        assert str(err.value) == f"ground level lam = {lam!r} not certified within 0 domain doublings"
        assert lam == pytest.approx(0.70637, abs=1e-5)
        monkeypatch.setattr(cf, "DIRECT_PAD", 24.0)
        monkeypatch.setattr(cf, "MAX_DIRECT_DOUBLINGS", 0)
        with pytest.raises(TruncationError) as err:
            cf.m_delta(0.5)
        (m,) = err.value.last_values
        assert str(err.value) == f"threshold m = {m!r} not certified within 0 domain doublings"
        assert m == pytest.approx(-0.0898189, rel=1e-6)

    def test_degenerate_result_reports_no_domain_error(self):
        assert ground_state_lambda(PotentialSpec(0.85, 1e4)).domain_error == 0.0

    def test_zspace_lattice_certifies_on_the_first_domain(self, monkeypatch):
        # every call of the benchmark's zspace_scan lattice: one potential
        # pass.  A ground-level call centres the coarse level's window by a
        # loose pass, then certifies the coarse and the fine level by inverse
        # iteration, three factorisations each (window guard and certificate),
        # and factors each bracket's Neumann side once; the certificates' tops
        # settle the Dirichlet sides.  A degenerate call centres the coarse
        # level, and one factorisation settles degeneracy from its loose
        # lower bound, with no level solved.  A direct call certifies both thresholds by
        # inverse iteration, with four factorisations each: the window guard,
        # the certificate's two, whose top is the bracket's Dirichlet side,
        # and the bracket's Neumann side
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        solves, factored = record_solves(monkeypatch), record_factorisations(monkeypatch)
        passes, real = [], groundstate.a_ell_grid

        def recording(spec, z):
            passes.append(np.size(z))
            return real(spec, z)

        monkeypatch.setattr(groundstate, "a_ell_grid", recording)
        checked = []
        for entry, args in workloads.lattice("zspace_scan"):
            solves.clear()
            solves.steps.clear()
            passes.clear()
            factored.clear()
            if entry == "critical_field_direct":
                critical_field_direct(*args)
                assert [solve.path for solve in solves] == [INVERSE] * 2, args
                assert (len(factored), len(passes)) == (8, 1), args
                checked.append(entry)
                continue
            res = ground_state_lambda(PotentialSpec(*args))
            if res.degenerate:
                assert (solves.steps, res.iterations, len(passes)) == (["centre"], 1, 1), args
                assert len(factored) == 1, args
            else:
                assert solves.steps == ["centre", "inverse", "inverse"], args
                assert (res.iterations, len(passes)) == (2, 1), args
                assert len(factored) == 8, args
                assert res.domain_error <= groundstate.DOMAIN_TOL
            checked.append("degenerate" if res.degenerate else "level")
        assert [checked.count(kind) for kind in ("level", "degenerate", entry)] == [11, 6, 8]


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

    def test_fractional_ell_is_rejected(self):
        # the index reaches PotentialSpec unchanged, not truncated to 1
        with pytest.raises(ValueError, match="ell must be a nonnegative integer"):
            ground_state_per_ell(PotentialSpec(0.5, 1.0), ells=(0, 1.5))


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
        # the bracket's DOMAIN_TOL/4 is far below a 1e-3 shift at any field
        class ShiftedGrid(groundstate._Grid):
            def level(self, centre):
                return super().level(centre) + 1e-3

        monkeypatch.setattr(groundstate, "_Grid", ShiftedGrid)
        with pytest.raises(AccuracyError):
            ground_state_lambda(PotentialSpec(0.1, 1e8))
