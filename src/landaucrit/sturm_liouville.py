"""Lowest Dirichlet eigenvalue of -(p f')' + q f on a symmetric interval.

Second-order central differences with p sampled at cell midpoints and q at
the interior nodes give a symmetric tridiagonal matrix.  Every eigenvalue the
package needs is one eigenvalue of such a matrix, and one kernel,
:func:`eigenvalue`, finds it by Sturm-sequence bisection (LAPACK dstebz
through ``scipy.linalg.eigh_tridiagonal``) under a single accuracy policy:
bisection runs to relative accuracy (``RELATIVE_TOL``), so badly scaled
coefficient ranges cannot degrade small eigenvalues.  Bisection from the
Gershgorin interval takes about log2(width / |lambda|) steps before the
relative ones, ~290 for lambda ~ e^-157; a caller that knows where the
eigenvalue lies passes a ``window=(lo, hi)``.  The window is used only once
an LDL^T factorisation of the matrix shifted by ``lo`` (LAPACK dpttrf, the
pivot recurrence of the Sturm count) certifies that no eigenvalue lies at or
below ``lo`` (Sylvester); bisection then runs inside (lo, hi] alone.  An
eigenvalue above the lowest, number k, may be windowed too when the caller
passes a guard: a tridiagonal G whose factorisation G - lo I certifies that
exactly k eigenvalues lie at or below ``lo``, such as the Schur complement
of a block known to hold k negative eigenvalues (Haynsworth inertia
additivity); groundstate's level is one.  A failed certificate or an empty
window falls back to the index selection, so the kernel always returns
eigenvalue k.  A weight, -(p f')' + q f = lambda w f, makes the pencil
(A, diag(w)); :func:`scaled_pencil` returns the symmetric tridiagonal matrix
with the same eigenvalues.  The problems posed
on the sinh-mapped grid sqrt(B) z = sinh(t) (critical_field.m_delta and
groundstate.ground_state_lambda) share one grid driver,
:func:`_mapped_richardson`, which samples their coefficients once per
domain: the Richardson pair's fine grid of 2n + 1 nodes has the coarse
grid's nodes and midpoints as its nodes, bit for bit (the halved step is
exact), so one pass over the fine grid's nodes and midpoints serves both
grids, the coarse one reading its odd samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf

from .errors import CoefficientError, TruncationError

__all__ = [
    "SturmLiouvilleProblem",
    "EigenResult",
    "lowest_eigenvalue",
    "odd_points",
    "grid_nodes",
    "richardson_step",
    "build_tridiagonal",
    "tridiagonal",
    "scaled_pencil",
    "positive_definite",
    "eigenvalue",
]

#: LAPACK bisection absolute tolerance of every eigen-solve, so small that
#: bisection runs to relative accuracy, as the sinh-mapped and log-kappa pencils
#: need (|m| ~ 3e-13 at delta = 0.05, sigma_1 ~ -e^-157 at delta = 0.01);
#: inside a certified window that takes ~53 bisection steps
RELATIVE_TOL = 1e-300

#: Hard cap on interior grid points during domain doubling.
MAX_GRID_POINTS = 16_000_000


@dataclass(frozen=True)
class SturmLiouvilleProblem:
    """-(p f')' + q f on [-L, L] with Dirichlet ends and n interior points.

    ``p`` and ``q`` must accept numpy arrays and be defined on the whole real
    line (domain doubling evaluates them beyond the initial [-L, L]).
    """

    p: Callable[[np.ndarray], np.ndarray]
    q: Callable[[np.ndarray], np.ndarray]
    L: float
    n: int

    def __post_init__(self):
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValueError(f"L must be positive and finite, got {self.L}")
        if self.n < 16:
            raise ValueError(f"n must be at least 16, got {self.n}")


@dataclass(frozen=True)
class EigenResult:
    value: float
    L: float
    n: int
    extrapolated: bool
    error_estimate: float

    @property
    def grid(self) -> tuple[float, int]:
        return (self.L, self.n)


def odd_points(L: float, h: float) -> int:
    """Odd interior point count n >= 17 for spacing ~h on [-L, L]; odd n keeps
    a kink of the coefficients at 0 on a node under every refinement n -> 2n+1."""
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"h must be positive and finite, got {h}")
    n = int(round(2.0 * L / h)) - 1
    n += 1 - n % 2
    return max(n, 17)


def grid_nodes(L: float, n: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(h, the n interior nodes, the n + 1 cell midpoints) on [-L, L]."""
    h = 2.0 * L / (n + 1)
    nodes = -L + h * np.arange(1, n + 1)
    mids = -L + h * (np.arange(n + 1) + 0.5)
    return h, nodes, mids


def richardson_step(coarse: float, fine: float) -> tuple[float, float]:
    """(extrapolated value, error estimate) from values on h and h/2 (h^2 error)."""
    return (4.0 * fine - coarse) / 3.0, abs(fine - coarse) / 3.0


def _mapped_richardson(sample: Callable[[np.ndarray], tuple[np.ndarray, ...]],
                       level: Callable[[float, int, tuple[np.ndarray, ...]], float],
                       T: float, h: float, stop: Callable[[float], tuple[float, float]],
                       max_doublings: int) -> tuple[float, float, float]:
    """(value, T, bound) of a problem on the sinh-mapped grid sqrt(B) z = sinh(t).

    ``level(T, n, samples)``, the problem's value on n interior nodes of t in
    [-T, T], is called on n = odd_points(T, h), then on 2n + 1 (odd n keeps
    z = 0 on a node), and the two are Richardson-extrapolated.  ``samples``
    are ``sample(t)`` at the nodes of grid_nodes(T, 2n + 1), the grid's
    midpoints and nodes interleaved: one call per domain, on the fine grid.
    ``stop(value)`` gives the certified bound on the value's domain error and
    its tolerance; the domain is doubled in z, T -> asinh(2 sinh T), until the
    bound is within the tolerance, and TruncationError, naming the last bound,
    follows ``max_doublings`` doublings.
    """
    for _ in range(max_doublings + 1):
        n = odd_points(T, h)
        samples = sample(grid_nodes(T, 4 * n + 3)[1])
        value = richardson_step(level(T, n, tuple(s[1::2] for s in samples)),
                                level(T, 2 * n + 1, samples))[0]
        bound, tol = stop(value)
        if bound <= tol:
            return value, T, bound
        T = math.asinh(2.0 * math.sinh(T))
    raise TruncationError(
        f"mapped-grid value {value!r} not certified within {max_doublings} domain doublings "
        f"(last certified bound {bound:.3e} > {tol:.3e})",
        last_values=(value,),
    )


def build_tridiagonal(problem: SturmLiouvilleProblem, L: float | None = None,
                      n: int | None = None) -> tuple[np.ndarray, np.ndarray, float]:
    """(diagonal, offdiagonal, h) of the discretized operator."""
    L = problem.L if L is None else L
    n = problem.n if n is None else n
    h, nodes, mids = grid_nodes(L, n)
    p_mid = np.asarray(problem.p(mids), dtype=float)
    if np.any(~np.isfinite(p_mid)) or np.any(p_mid <= 0.0):
        bad = mids[np.nonzero(~np.isfinite(p_mid) | (p_mid <= 0.0))[0][0]]
        raise CoefficientError(f"p must be positive and finite; offending midpoint z={bad}")
    q_node = np.asarray(problem.q(nodes), dtype=float)
    return (*tridiagonal(p_mid, q_node, h), h)


def tridiagonal(p_mid: np.ndarray, q_node: np.ndarray,
                h: float) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, offdiagonal) from p at the n + 1 midpoints and q at the n nodes."""
    diag = (p_mid[:-1] + p_mid[1:]) / h**2 + q_node
    offdiag = -p_mid[1:-1] / h**2
    return diag, offdiag


def scaled_pencil(p_mid: np.ndarray, q_node: np.ndarray, scale: np.ndarray,
                  h: float) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, offdiagonal) of S A S, S = diag(scale), for the pencil
    A f = lambda W f with A from :func:`tridiagonal` and W = S^-2 > 0, a weight
    given by its scale w^-1/2 at the n nodes.

    S A S is similar to W^-1 A, so its eigenvalues are those of the pencil, and
    by Sylvester it has the inertia of A - sigma W at each shift sigma.
    """
    diag, offdiag = tridiagonal(p_mid, q_node, h)
    return diag * scale * scale, offdiag * scale[:-1] * scale[1:]


def positive_definite(diag: np.ndarray, offdiag: np.ndarray) -> bool:
    """Whether the LDL^T factorisation of the symmetric tridiagonal matrix
    (diag, offdiag) succeeds, i.e. (Sylvester) no eigenvalue lies at or below 0."""
    return dpttrf(diag, offdiag)[2] == 0


def eigenvalue(diag: np.ndarray, offdiag: np.ndarray, *, index: int = 0,
               window: tuple[float, float] | None = None,
               guard: tuple[np.ndarray, np.ndarray] | None = None,
               vector: bool = False) -> tuple[float, np.ndarray | None, int]:
    """(eigenvalue number ``index`` (0-based, ascending; the lowest by
    default) of the symmetric tridiagonal matrix (diag, offdiag), its unit
    eigenvector if ``vector`` else None, the eigen-solves made), bisected to
    relative accuracy.

    ``window=(lo, hi)`` bisects inside (lo, hi] once dpttrf certifies that
    exactly ``index`` eigenvalues lie at or below ``lo``; if that fails, or
    the window is empty, the index selection runs instead, and an empty
    certified window counts two solves.  For the lowest eigenvalue the
    certificate factors the matrix shifted by ``lo``.  Any other index needs
    a ``guard=(G_diag, G_offdiag)``, a tridiagonal matrix for which a
    successful factorisation of G - lo I certifies the count (a Schur
    complement, by Haynsworth inertia additivity); without one a window
    raises ValueError.  A windowed value may differ from the index
    selection's in the last bit or two, since the bisection starts from
    another interval.  The eigenvector costs an inverse-iteration solve more.
    """
    selections = [("i", (index, index))]
    if window is not None:
        if guard is None and index != 0:
            raise ValueError("a window above the lowest eigenvalue needs a guard")
        guard_diag, guard_offdiag = (diag, offdiag) if guard is None else guard
        if positive_definite(guard_diag - window[0], guard_offdiag):
            selections.insert(0, ("v", window))
    for solves, (select, select_range) in enumerate(selections, 1):
        found = eigh_tridiagonal(diag, offdiag, eigvals_only=not vector, select=select,
                                 select_range=select_range, tol=RELATIVE_TOL)
        values, vectors = found if vector else (found, None)
        if values.size:
            break
    return float(values[0]), None if vectors is None else vectors[:, 0], solves


def _solve_grid(problem: SturmLiouvilleProblem, L: float, n: int, richardson: bool) -> EigenResult:
    e_n = eigenvalue(*build_tridiagonal(problem, L, n)[:2])[0]
    if not richardson:
        return EigenResult(value=e_n, L=L, n=n, extrapolated=False, error_estimate=0.0)
    # n -> 2n+1 halves h exactly and keeps every coarse node on the fine grid,
    # so both solves share one h^2 error family and extrapolation is clean
    # even for coefficients with a kink at a node (e.g. |z|-like potentials).
    n_fine = 2 * n + 1
    e_fine = eigenvalue(*build_tridiagonal(problem, L, n_fine)[:2])[0]
    value, error = richardson_step(e_n, e_fine)
    return EigenResult(value=value, L=L, n=n_fine, extrapolated=True, error_estimate=error)


def lowest_eigenvalue(problem: SturmLiouvilleProblem, *, richardson: bool = True,
                      stabilize_domain: bool = True, domain_tol: float = 1e-9,
                      max_doublings: int = 8) -> EigenResult:
    """Lowest Dirichlet eigenvalue with optional h-extrapolation and L-doubling.

    With ``stabilize_domain`` the interval is doubled (n scaled with it, so h
    is fixed) until successive eigenvalues differ by less than ``domain_tol``;
    failing to stabilize within ``max_doublings`` (or exceeding the grid cap)
    raises :class:`TruncationError` carrying the last two values.
    """
    if not stabilize_domain:
        return _solve_grid(problem, problem.L, problem.n, richardson)

    L, n = problem.L, problem.n
    prev = _solve_grid(problem, L, n, richardson)
    for _ in range(max_doublings):
        # doubling both L and the cell count (n -> 2n+1) keeps h fixed
        L, n = 2.0 * L, 2 * n + 1
        if n > MAX_GRID_POINTS:
            raise TruncationError(
                f"domain doubling exceeded the grid cap at n={n} before stabilizing",
                last_values=(prev.value, math.nan),
            )
        cur = _solve_grid(problem, L, n, richardson)
        if abs(cur.value - prev.value) < domain_tol:
            return cur
        prev = cur
    raise TruncationError(
        f"eigenvalue did not stabilize within {max_doublings} domain doublings "
        f"(last shift {abs(cur.value - prev.value):.3e})",
        last_values=(prev.value, cur.value),
    )
