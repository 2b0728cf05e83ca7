"""Lowest level of the effective 1D theory as one eigenvalue of a Dirac matrix.

For fixed lambda the Rayleigh functional is the quadratic form of the linear
operator -(p f')' + q f with p = 1/(1 + lambda + nu a_ell) and
q = 1 - nu a_ell; its lowest Dirichlet eigenvalue T(lambda) is nonincreasing
in lambda, so Phi(lambda) = T(lambda) - lambda has a unique root in (-1, 1]
whenever Phi(-1) > 0.  If Phi(-1) <= 0 the level has reached the lower
continuum edge and the solve reports the degenerate value -1.

The root is an eigenvalue in the gap of the first-order system
-(1 + nu a) g + f' = lambda g, (1 - nu a) f - g' = lambda f (Dolbeault,
Esteban and Sere).  With g at the n + 1 cell midpoints and f at the n nodes
it is the symmetric tridiagonal matrix H of size 2n + 1 whose diagonal is
-(1 + nu a) at the midpoints and 1 - nu a at the nodes, every off-diagonal
entry 1/h up to a sign that a diagonal similarity removes.  Eliminating g
gives back the three-point matrix A(lambda) of T.  For lambda >= -1 the g
block -(1 + lambda + nu a) is negative definite, so by Haynsworth's inertia
additivity of the Schur complement H has n + 1 + #{eig A(lambda) < lambda}
eigenvalues below lambda: a grid's root of Phi is eigenvalue number n + 1
(0-based) of H, one bisection solve with no iteration in lambda.

Grid control is Richardson extrapolation in n at fixed h-ratio plus domain
doubling in L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import sturm_liouville
from .errors import TruncationError
from .potentials import PotentialSpec, a_ell_grid

__all__ = ["FixedPointResult", "ground_state_lambda", "ground_state_per_ell"]

# Domain rule L = max(C_FIELD/sqrt(B), C_COULOMB/nu, C_TAIL/(1 - lambda_est)),
# then doubled until the root is stable.
C_FIELD = 20.0
C_COULOMB = 30.0
C_TAIL = 10.0

#: grid spacing h = H_SCALE / sqrt(max(1, B)); resolves the field-scale well.
H_SCALE = 0.05

#: soft cap on interior points for automatically chosen grids; odd, like
#: every grid here.
N_SOFT = 1_500_001

# Stopping rules of ground_state_lambda: Phi(-1) <= DEGENERACY_TOL is the
# degenerate level lambda = -1; the domain grows until the extrapolated level
# moves by less than DOMAIN_TOL, at most MAX_DOUBLINGS times before
# TruncationError.  RESIDUAL_TOL bounds the |Phi| that a level bisected to
# BISECTION_TOL leaves on its grid.
RESIDUAL_TOL = 1e-10
DEGENERACY_TOL = 1e-9
DOMAIN_TOL = 1e-7
MAX_DOUBLINGS = 6


@dataclass(frozen=True)
class FixedPointResult:
    """Converged lowest level lambda_1(nu, B) with solve diagnostics.

    ``iterations`` counts the eigen-solves of the call.  ``residual`` is
    |Phi| = |T(lambda) - lambda| on the fine grid (L, n) at that grid's own
    level; for a degenerate result it is max(Phi(-1), 0) on the grid (L, n)
    that decided it.
    """

    lam: float
    iterations: int
    residual: float
    degenerate: bool
    L: float
    n: int

    @property
    def grid(self) -> tuple[float, int]:
        return (self.L, self.n)


def _default_domain(spec: PotentialSpec) -> float:
    return max(C_FIELD / math.sqrt(spec.B), C_COULOMB / spec.nu, 10.0)


def _default_spacing(spec: PotentialSpec) -> float:
    return H_SCALE / math.sqrt(max(1.0, spec.B))


def _clip_to_budget(L: float, h: float) -> tuple[float, int]:
    n = sturm_liouville.odd_points(L, h)
    if n >= N_SOFT:
        n = N_SOFT
        L = 0.5 * h * (n + 1)
    return L, n


class _Grid:
    """Potential samples on one (L, n) grid, shared by T and the level."""

    def __init__(self, spec: PotentialSpec, L: float, n: int):
        self.spec = spec
        self.n = n
        self.h, nodes, mids = sturm_liouville.grid_nodes(L, n)
        self.a_mids = a_ell_grid(spec, mids)
        self.q_nodes = 1.0 - spec.nu * a_ell_grid(spec, nodes)

    def T(self, lam: float) -> float:
        """T(lambda), the lowest eigenvalue of A(lambda) = -(p f')' + q f."""
        p_mid = 1.0 / (1.0 + lam + self.spec.nu * self.a_mids)
        return sturm_liouville.lowest_of_tridiagonal(
            *sturm_liouville.tridiagonal(p_mid, self.q_nodes, self.h))

    def level(self) -> float:
        """Root of Phi on this grid if Phi(-1) > 0: eigenvalue n + 1 of the
        staggered H, g at the midpoints interleaved with f at the nodes."""
        diag = np.empty(2 * self.n + 1)
        diag[0::2] = -(1.0 + self.spec.nu * self.a_mids)
        diag[1::2] = self.q_nodes
        return sturm_liouville.lowest_of_tridiagonal(
            diag, np.full(2 * self.n, 1.0 / self.h), index=self.n + 1)


def ground_state_lambda(spec: PotentialSpec, *, L: float | None = None,
                        n: int | None = None) -> FixedPointResult:
    """Ground state lambda_1(nu, B) of the lowest-Landau effective theory.

    On each domain one value solve decides degeneracy: T(-1) + 1 <=
    DEGENERACY_TOL on the n-point grid returns the degenerate lambda = -1.
    Otherwise the level is eigenvalue n + 1 of the staggered Dirac matrix H
    (module docstring) on n and 2n + 1 points, Richardson-extrapolated over
    the two, and the domain is doubled until the level moves by less than
    DOMAIN_TOL.  A fine level <= -1 (degenerate on the fine grid only)
    doubles the domain at fixed h and keeps the previous domain's root, so
    that a Richardson root at -1 is never taken as stable.  One value solve
    of T at the returned fine level gives ``residual``, which checks the
    eigenvalue index.
    """
    h = _default_spacing(spec)
    if L is not None and n is not None:
        cur_L, cur_n = float(L), int(n)
    else:
        cur_L, cur_n = _clip_to_budget(L if L is not None else _default_domain(spec), h)

    prev_root = root = None
    solves = 0
    for _ in range(MAX_DOUBLINGS + 1):
        coarse = _Grid(spec, cur_L, cur_n)
        phi_minus_one = coarse.T(-1.0) + 1.0
        solves += 1
        if phi_minus_one <= DEGENERACY_TOL:
            # deeper in the degenerate regime for larger L (T(-1) only
            # decreases with the domain), so -1 is final.
            return FixedPointResult(
                lam=-1.0, iterations=solves, residual=max(phi_minus_one, 0.0),
                degenerate=True, L=cur_L, n=cur_n,
            )
        # n -> 2n+1 halves h exactly, keeping the refinement in one h^2 family
        fine = _Grid(spec, cur_L, 2 * cur_n + 1)
        level_n, level_fine = coarse.level(), fine.level()
        solves += 2
        if level_fine <= -1.0:
            # n -> 2n+1 with L doubled keeps h fixed and z = 0 on a node
            cur_L, cur_n = 2.0 * cur_L, 2 * cur_n + 1
            continue

        root, _ = sturm_liouville.richardson_step(level_n, level_fine)
        tail_L = C_TAIL / max(1.0 - root, 1e-3)
        need_wider = tail_L > cur_L
        if prev_root is not None and abs(root - prev_root) < DOMAIN_TOL and not need_wider:
            residual = abs(fine.T(level_fine) - level_fine)
            return FixedPointResult(
                lam=float(np.clip(root, -1.0, 1.0)), iterations=solves + 1,
                residual=residual, degenerate=False, L=cur_L, n=fine.n,
            )
        prev_root = root
        cur_L = max(2.0 * cur_L, min(tail_L, 8.0 * cur_L))
        cur_n = sturm_liouville.odd_points(cur_L, coarse.h)
        if cur_n > sturm_liouville.MAX_GRID_POINTS:
            raise TruncationError(
                f"ground-state domain grew past the grid cap (n={cur_n})",
                last_values=(prev_root, root),
            )

    raise TruncationError(
        f"ground-state root did not stabilize within {MAX_DOUBLINGS} domain doublings",
        last_values=(prev_root, root),
    )


def ground_state_per_ell(spec: PotentialSpec,
                         ells: Sequence[int] = (0, 1, 2)) -> list[FixedPointResult]:
    """Ground state per Landau index at fixed (nu, B); ell = 0 is the minimum."""
    return [ground_state_lambda(replace(spec, ell=int(ell))) for ell in ells]
