"""Tests for the nonlinear fixed point defining the lowest level."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.sparse import diags
from scipy.sparse.linalg import eigsh
from scipy.special import erfcx

from landaucrit import groundstate, sturm_liouville
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
        # doubling n and L moves lambda by < 1e-6
        spec = PotentialSpec(0.5, 1.0)
        a = ground_state_lambda(spec, L=60.0, n=4801).lam
        b = ground_state_lambda(spec, L=120.0, n=9603).lam
        assert abs(a - b) < 1e-6

    def test_bracket_retry_keeps_spacing_and_odd_n(self, monkeypatch):
        # a fine level <= -1 where the coarse grid is not degenerate doubles
        # the domain at fixed h
        grids = []

        class RecordingGrid(groundstate._Grid):
            def __init__(self, spec, L, n):
                grids.append((L, n))
                self.order = len(grids)
                super().__init__(spec, L, n)

            def level(self):
                return -1.0 if self.order == 2 else super().level()

        monkeypatch.setattr(groundstate, "_Grid", RecordingGrid)
        ground_state_lambda(PotentialSpec(0.5, 1.0), L=60.0, n=4801)
        assert grids[1] == (60.0, 9603)
        assert all(n % 2 == 1 for _, n in grids)
        (L0, n0), (L1, n1) = grids[0], grids[2]
        assert L1 == 2.0 * L0
        assert 2.0 * L1 / (n1 + 1) == 2.0 * L0 / (n0 + 1)

    def test_fine_level_at_minus_one_is_not_a_stable_root(self, monkeypatch):
        # levels just above -1 on the first domain, then -1 on both grids of
        # the second: their Richardson roots differ by 3e-8 < DOMAIN_TOL, so
        # only the fine-level <= -1 branch keeps the second domain from
        # returning lam = -1 as a non-degenerate level
        forced = {1: -0.9999999, 2: -0.99999995, 3: -1.0, 4: -1.0}
        grids = []

        class RecordingGrid(groundstate._Grid):
            def __init__(self, spec, L, n):
                grids.append((L, n))
                self.order = len(grids)
                super().__init__(spec, L, n)

            def level(self):
                if self.order in forced:
                    return forced[self.order]
                return super().level()

        monkeypatch.setattr(groundstate, "_Grid", RecordingGrid)
        res = ground_state_lambda(PotentialSpec(0.5, 1.0), L=60.0, n=4801)
        assert not res.degenerate
        assert res.lam > -1.0 + 1e-3

    def test_eigensolve_count(self, monkeypatch):
        calls = record_eigensolves(monkeypatch)
        res = ground_state_lambda(PotentialSpec(0.3, 2.0))
        assert 0 < len(calls) == res.iterations <= 8

    def test_degenerate_call_is_one_value_solve(self, monkeypatch):
        calls = record_eigensolves(monkeypatch)
        res = ground_state_lambda(PotentialSpec(0.85, 1e4))
        assert res.degenerate
        assert calls == [True]
        assert res.iterations == 1

    @pytest.mark.parametrize("nu,B,ell", [(0.3, 2.0, 0), (0.3, 2.0, 2), (0.65, 50.0, 0)])
    def test_level_matches_brentq_on_same_grid(self, nu, B, ell):
        # the root of Phi is eigenvalue n + 1 of the staggered Dirac matrix
        grid = groundstate._Grid(PotentialSpec(nu, B, ell), 60.0, 4801)
        level = grid.level()
        want = brentq(lambda lam: grid.T(lam) - lam, -1.0, 1.0, xtol=1e-13, rtol=8.9e-16)
        assert abs(level - want) <= 1e-10
        assert abs(grid.T(level) - level) <= groundstate.RESIDUAL_TOL

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
