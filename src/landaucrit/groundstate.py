"""Lowest level of the effective 1D theory as one eigenvalue of a Dirac matrix.

For fixed lambda the Rayleigh functional is the quadratic form of the linear
operator -(p f')' + q f with p = 1/(1 + lambda + nu a_ell) and
q = 1 - nu a_ell; its lowest Dirichlet eigenvalue T(lambda) is nonincreasing
in lambda, so Phi(lambda) = T(lambda) - lambda has a unique root in (-1, 1]
whenever Phi(-1) > 0.  If Phi(-1) <= 0 the level has reached the lower
continuum edge and the solve reports the degenerate value -1.

The root is an eigenvalue in the gap of the first-order system
-(1 + nu a) g + f' = lambda g, (1 - nu a) f - g' = lambda f (Dolbeault,
Esteban and Sere), discretized on the grid of critical_field.m_delta:
uniform in t with step h, sqrt(B) z = sinh(t), z' = cosh(t)/sqrt(B), g at
the n + 1 cell midpoints and f at the n nodes.  The pencil (H, diag(z'))
scaled by diag(z')^-1/2 is the symmetric tridiagonal matrix of size 2n + 1
with diagonal -(1 + nu a) at the midpoints and 1 - nu a at the nodes and
off-diagonal 1/(h sqrt(z'_mid z'_node)), up to signs a diagonal similarity
removes.  Eliminating g gives the three-point pencil of T(lambda).  While
the g block -(1 + lambda + nu a) is negative definite, Haynsworth's inertia
additivity puts n + 1 + #{eigenvalues of T(lambda) below lambda} eigenvalues
of H below lambda: a grid's root of Phi is eigenvalue n + 1 (0-based), one
bisection with no iteration in lambda, and it lies below -1 exactly when
Phi(-1) < 0.  At lambda = -1 the Schur complement is the direct route's
pencil plus its weight, so T(-1) = 1 + sqrt(B) m(nu) grid by grid.

The mapped-grid driver of sturm_liouville does the Richardson extrapolation
over n -> 2n + 1 and the domain doubling in z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import sturm_liouville
from .errors import AccuracyError
from .potentials import PotentialSpec, a_ell_grid

__all__ = ["FixedPointResult", "ground_state_lambda", "ground_state_per_ell"]

# First domain |z| <= max(C_FIELD/sqrt(B), C_COULOMB/nu, 10), then doubled
# until the level is stable.
C_FIELD = 20.0
C_COULOMB = 30.0

# Stopping rules of ground_state_lambda: the domain grows until the
# extrapolated level moves by less than DOMAIN_TOL, at most MAX_DOUBLINGS
# times before TruncationError.  Both eigen-solves bisect to relative
# accuracy (LEVEL_TOL), so the |Phi| a fine-grid level leaves is the float
# floor eps max|diag| of the T-pencil (<= 0.21 of it measured for nu in
# [0.05, 0.9], B in [1e-3, 1e8]); above RESIDUAL_FLOOR times that floor the
# call raises AccuracyError.
DOMAIN_TOL = 1e-7
MAX_DOUBLINGS = 6
LEVEL_TOL = 1e-300
RESIDUAL_FLOOR = 4.0


@dataclass(frozen=True)
class FixedPointResult:
    """Converged lowest level lambda_1(nu, B) with solve diagnostics.

    ``iterations`` counts the eigen-solves of the call.  The last domain is
    |z| <= L = sinh(T)/sqrt(B), and n is the point count of its fine t-grid.
    ``residual`` is |Phi| = |T(lambda) - lambda| on that grid at the grid's
    own level, checked against RESIDUAL_FLOOR times its float floor; a
    degenerate result has no root to check and reports 0.
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


class _Grid:
    """Potential samples on n interior nodes of t in [-T, T], sqrt(B) z = sinh(t),
    shared by the level and Phi."""

    def __init__(self, spec: PotentialSpec, T: float, n: int):
        self.spec = spec
        self.n = n
        self.h, nodes, mids = sturm_liouville.grid_nodes(T, n)
        rootB = math.sqrt(spec.B)
        self.dz_mids = np.cosh(mids) / rootB
        self.dz_nodes = np.cosh(nodes) / rootB
        self.a_mids = a_ell_grid(spec, np.sinh(mids) / rootB)
        self.q_nodes = 1.0 - spec.nu * a_ell_grid(spec, np.sinh(nodes) / rootB)

    def phi(self, lam: float) -> tuple[float, float]:
        """(Phi(lambda) = T(lambda) - lambda, the float floor eps max|diag| of
        T); T(lambda) is the lowest eigenvalue of the pencil
        -(p/z' f_t)_t + q z' f = T z' f, p = 1/(1 + lambda + nu a)."""
        p_mid = 1.0 / (self.dz_mids * (1.0 + lam + self.spec.nu * self.a_mids))
        diag, offdiag = sturm_liouville.scaled_pencil(
            p_mid, self.q_nodes * self.dz_nodes, self.dz_nodes ** -0.5, self.h)
        T = sturm_liouville.lowest_of_tridiagonal(diag, offdiag, tol=LEVEL_TOL)
        return T - lam, float(np.finfo(float).eps * np.max(np.abs(diag)))

    def level(self) -> float:
        """Eigenvalue n + 1 of the scaled staggered H, g at the midpoints
        interleaved with f at the nodes: the root of Phi on this grid, and
        below -1 iff Phi(-1) < 0."""
        diag = np.empty(2 * self.n + 1)
        diag[0::2] = -(1.0 + self.spec.nu * self.a_mids)
        diag[1::2] = self.q_nodes
        dz = np.empty(2 * self.n + 1)
        dz[0::2] = self.dz_mids
        dz[1::2] = self.dz_nodes
        return sturm_liouville.lowest_of_tridiagonal(
            diag, 1.0 / (self.h * np.sqrt(dz[:-1] * dz[1:])), index=self.n + 1,
            tol=LEVEL_TOL)


def ground_state_lambda(spec: PotentialSpec, *, h: float = 0.025) -> FixedPointResult:
    """Ground state lambda_1(nu, B) of the lowest-Landau effective theory.

    The level is eigenvalue n + 1 of the staggered Dirac matrix (module
    docstring) on the sinh-mapped t-grid of step h and on its 2n + 1-point
    refinement, Richardson-extrapolated over the two; the first domain is
    |z| <= max(C_FIELD/sqrt(B), C_COULOMB/nu, 10), and it is doubled in z
    until the level moves by less than DOMAIN_TOL.  The result is degenerate,
    lam = -1, as soon as the extrapolated level is <= -1: a wider domain only
    lowers it.  Otherwise one value solve of T at the fine grid's own level
    gives ``residual``, which checks the eigenvalue index: above
    RESIDUAL_FLOOR times the grid's float floor it raises AccuracyError.
    """
    rootB = math.sqrt(spec.B)
    solves, fine = 0, None

    def level(T: float, n: int) -> float:
        nonlocal solves, fine
        grid = _Grid(spec, T, n)
        solves, fine = solves + 1, (grid, grid.level())
        return fine[1]

    lam, T = sturm_liouville._mapped_richardson(
        level, math.asinh(rootB * _default_domain(spec)), h,
        lambda prev, lam: lam <= -1.0 or abs(lam - prev) < DOMAIN_TOL, MAX_DOUBLINGS)
    grid, level_fine = fine
    L = math.sinh(T) / rootB
    if lam <= -1.0:
        return FixedPointResult(lam=-1.0, iterations=solves, residual=0.0,
                                degenerate=True, L=L, n=grid.n)
    phi, floor = grid.phi(level_fine)
    if abs(phi) > RESIDUAL_FLOOR * floor:
        raise AccuracyError(
            f"fine-grid level {level_fine!r} leaves |Phi| = {abs(phi):.3e} "
            f"> RESIDUAL_FLOOR eps max|diag| = {RESIDUAL_FLOOR * floor:.3e}")
    return FixedPointResult(lam=min(lam, 1.0), iterations=solves + 1, residual=abs(phi),
                            degenerate=False, L=L, n=grid.n)


def ground_state_per_ell(spec: PotentialSpec,
                         ells: Sequence[int] = (0, 1, 2)) -> list[FixedPointResult]:
    """Ground state per Landau index at fixed (nu, B); ell = 0 is the minimum."""
    return [ground_state_lambda(replace(spec, ell=int(ell))) for ell in ells]
