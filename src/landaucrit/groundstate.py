"""Lowest level of the effective 1D theory as one eigenvalue of a Dirac matrix.

For fixed lambda the Rayleigh functional is the quadratic form of the linear
operator -(p f')' + q f with p = 1/(1 + lambda + nu a_ell) and
q = 1 - nu a_ell; its lowest Dirichlet eigenvalue T(lambda) is nonincreasing
in lambda, so Phi(lambda) = T(lambda) - lambda has a unique root in (-1, 1]
whenever Phi(-1) > 0.  If Phi(-1) <= 0 the level has reached the lower
continuum edge and the solve reports the degenerate value -1.

The root is an eigenvalue in the gap of the first-order system
-(1 + nu a) g + f' = lambda g, (1 - nu a) f - g' = lambda f (Dolbeault,
Esteban and Sere), discretized on the grid critical_field.m_delta shares:
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
Phi(-1) < 0.  At lambda = -1 the T-pencil less the identity is the direct
route's problem -(f'/(nu a))' - nu a f = m f, and critical_field.m_delta
solves it on this grid (:meth:`_Grid.threshold`), so T(-1) = 1 + sqrt(B) m(nu)
holds grid by grid by construction.

The mapped-grid driver of sturm_liouville does the Richardson extrapolation
over n -> 2n + 1 and the domain doubling in z, and samples the potential
once per domain for both grids of the pair.  Only the first grid of a
call bisects its level from the Gershgorin interval.  Every later one (the
fine grid after the coarse one, the next domain's coarse grid after the
last fine one) bisects inside (lo, hi] = c -+ LEVEL_WINDOW around the last
level c, if lo > -1: by the inertia count above, a successful LDL^T
factorisation of the T-pencil at lambda = lo, shifted by lo, certifies that
exactly n + 1 eigenvalues of H lie at or below lo (the gap min-max of
Dolbeault, Esteban and Sere used as a Sylvester certificate), so the level
is the smallest eigenvalue in the window.  The residual solve of T at the
fine level bisects inside the same width around it.  A failed certificate
or an empty window falls back to the index selection.
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
# accuracy (sturm_liouville.RELATIVE_TOL), so the |Phi| a fine-grid level
# leaves is the float floor eps max|diag| of the T-pencil (<= 0.21 of it
# measured for nu in [0.05, 0.9], B in [1e-3, 1e8]); above RESIDUAL_FLOOR
# times that floor the call raises AccuracyError.
DOMAIN_TOL = 1e-7
MAX_DOUBLINGS = 6
RESIDUAL_FLOOR = 4.0

# Half-width of the bisection window of every level solve after the first,
# around the last level of the call, and of the residual solve's window
# around the fine level.  The largest shift measured between a level and
# its centre is 6.5e-5 (nu in [0.05, 0.9], B in [1e-3, 1e8], ell 0-3), from
# a coarse level to its fine one and from a fine level to the next domain's
# coarse one, whose step is twice as large.
LEVEL_WINDOW = 1e-3


@dataclass(frozen=True)
class FixedPointResult:
    """Converged lowest level lambda_1(nu, B) with solve diagnostics.

    ``iterations`` counts the eigen-solves of the call; a window that held no
    eigenvalue counts twice, for its bisection and the index selection.  The
    last domain is |z| <= L = sinh(T)/sqrt(B), and n is the point count of
    its fine t-grid.
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


def _samples(spec: PotentialSpec, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z', a_ell) at the points t, sqrt(B) z = sinh(t)."""
    rootB = math.sqrt(spec.B)
    return np.cosh(t) / rootB, a_ell_grid(spec, np.sinh(t) / rootB)


class _Grid:
    """Potential samples on n interior nodes of t in [-T, T], sqrt(B) z = sinh(t),
    shared by the level, Phi and the threshold.

    ``samples`` are :func:`_samples` at the nodes of grid_nodes(T, 2n + 1),
    taken here when not given.  ``centre``, a level close to this grid's (the
    last one computed), centres the bisection window of :meth:`level`.
    ``missed`` is 1 when the certified window of the grid's last solve held no
    eigenvalue, so that the index selection ran after the bisection, and 0
    otherwise."""

    def __init__(self, spec: PotentialSpec, T: float, n: int, *,
                 samples: tuple[np.ndarray, np.ndarray] | None = None,
                 centre: float | None = None):
        self.n = n
        self.h = 2.0 * T / (n + 1)
        self.dz, a = (_samples(spec, sturm_liouville.grid_nodes(T, 2 * n + 1)[1])
                      if samples is None else samples)
        self.nu_a = spec.nu * a
        self.centre = centre
        self.missed = 0

    def _eigenvalue(self, diag: np.ndarray, offdiag: np.ndarray, **kwargs) -> float:
        value, solves = sturm_liouville._counted_eigenvalue(
            diag, offdiag, tol=sturm_liouville.RELATIVE_TOL, **kwargs)
        self.missed = solves - 1
        return value

    def _pencil(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """The pencil of T(lambda) - 1, -(p/z' f_t)_t - nu a z' f = (T - 1) z' f
        with p = 1/(1 + lambda + nu a), as its scaled symmetric tridiagonal
        matrix.  The identity is left out so that T(-1) - 1 = sqrt(B) m keeps
        its relative accuracy (|m| ~ 3e-13 at nu = 0.05)."""
        dz_nodes = self.dz[1::2]
        p_mid = 1.0 / (self.dz[0::2] * (1.0 + lam + self.nu_a[0::2]))
        return sturm_liouville.scaled_pencil(p_mid, -self.nu_a[1::2] * dz_nodes,
                                             dz_nodes ** -0.5, self.h)

    def threshold(self, window: tuple[float, float]) -> float:
        """T(-1) - 1 on this grid, the lowest eigenvalue of the direct route's
        pencil -(f'/(nu a))' - nu a f = m f, which is m(nu, B) = sqrt(B) m(nu);
        bisected inside ``window`` once certified."""
        return self._eigenvalue(*self._pencil(-1.0), window=window)

    def phi(self, lam: float, *,
            window: tuple[float, float] | None = None) -> tuple[float, float]:
        """(Phi(lambda) = T(lambda) - lambda, the float floor eps max|diag| of
        T); T(lambda) is the lowest eigenvalue of :meth:`_pencil` plus the
        identity, bisected inside ``window`` once certified."""
        diag, offdiag = self._pencil(lam)
        diag += 1.0
        T = self._eigenvalue(diag, offdiag, window=window)
        return T - lam, float(np.finfo(float).eps * np.max(np.abs(diag)))

    def level(self) -> float:
        """Eigenvalue n + 1 of the scaled staggered H, g at the midpoints
        interleaved with f at the nodes: the root of Phi on this grid, and
        below -1 iff Phi(-1) < 0.  With a centre c and lo = c - LEVEL_WINDOW
        > -1 it is bisected inside (lo, c + LEVEL_WINDOW], guarded by the
        T-pencil at lo: H - lo I has the negative definite g block
        -(1 + lo + nu a), whose Schur complement is that pencil shifted by lo."""
        diag = np.empty(2 * self.n + 1)
        diag[0::2] = -(1.0 + self.nu_a[0::2])
        diag[1::2] = 1.0 - self.nu_a[1::2]
        offdiag = 1.0 / (self.h * np.sqrt(self.dz[:-1] * self.dz[1:]))
        window = guard = None
        if self.centre is not None and self.centre - LEVEL_WINDOW > -1.0:
            window = (self.centre - LEVEL_WINDOW, self.centre + LEVEL_WINDOW)
            guard_diag, guard_offdiag = self._pencil(window[0])
            guard = (guard_diag + 1.0, guard_offdiag)
        return self._eigenvalue(diag, offdiag, index=self.n + 1, window=window, guard=guard)


def ground_state_lambda(spec: PotentialSpec, *, h: float = 0.025) -> FixedPointResult:
    """Ground state lambda_1(nu, B) of the lowest-Landau effective theory.

    The level is eigenvalue n + 1 of the staggered Dirac matrix (module
    docstring) on the sinh-mapped t-grid of step h and on its 2n + 1-point
    refinement, Richardson-extrapolated over the two; the first domain is
    |z| <= max(C_FIELD/sqrt(B), C_COULOMB/nu, 10), and it is doubled in z
    until the level moves by less than DOMAIN_TOL.  Every level after the
    first is bisected inside a certified window of LEVEL_WINDOW around the
    last one (module docstring).  The result is degenerate,
    lam = -1, as soon as the extrapolated level is <= -1: a wider domain only
    lowers it.  Otherwise one value solve of T at the fine grid's own level
    gives ``residual``, which checks the eigenvalue index: above
    RESIDUAL_FLOOR times the grid's float floor it raises AccuracyError.
    """
    rootB = math.sqrt(spec.B)
    solves, fine = 0, None  # fine: (grid, level) of the last grid solved

    def level(T: float, n: int, samples: tuple[np.ndarray, np.ndarray]) -> float:
        nonlocal solves, fine
        grid = _Grid(spec, T, n, samples=samples, centre=None if fine is None else fine[1])
        fine = (grid, grid.level())
        solves += 1 + grid.missed
        return fine[1]

    lam, T = sturm_liouville._mapped_richardson(
        lambda t: _samples(spec, t), level, math.asinh(rootB * _default_domain(spec)), h,
        lambda prev, lam: lam <= -1.0 or abs(lam - prev) < DOMAIN_TOL, MAX_DOUBLINGS)
    grid, level_fine = fine
    L = math.sinh(T) / rootB
    if lam <= -1.0:
        return FixedPointResult(lam=-1.0, iterations=solves, residual=0.0,
                                degenerate=True, L=L, n=grid.n)
    phi, floor = grid.phi(level_fine, window=(level_fine - LEVEL_WINDOW,
                                              level_fine + LEVEL_WINDOW))
    if abs(phi) > RESIDUAL_FLOOR * floor:
        raise AccuracyError(
            f"fine-grid level {level_fine!r} leaves |Phi| = {abs(phi):.3e} "
            f"> RESIDUAL_FLOOR eps max|diag| = {RESIDUAL_FLOOR * floor:.3e}")
    return FixedPointResult(lam=min(lam, 1.0), iterations=solves + 1 + grid.missed,
                            residual=abs(phi), degenerate=False, L=L, n=grid.n)


def ground_state_per_ell(spec: PotentialSpec,
                         ells: Sequence[int] = (0, 1, 2)) -> list[FixedPointResult]:
    """Ground state per Landau index at fixed (nu, B); ell = 0 is the minimum."""
    return [ground_state_lambda(replace(spec, ell=ell)) for ell in ells]
