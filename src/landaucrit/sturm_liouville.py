"""Lowest Dirichlet eigenvalue of -(p f')' + q f on a symmetric interval.

Second-order central differences with p sampled at cell midpoints and q at
the interior nodes give a symmetric tridiagonal matrix whose eigenvalues are
extracted by Sturm-sequence bisection (LAPACK dstebz through
``scipy.linalg.eigh_tridiagonal``, with an explicit absolute tolerance so
badly scaled coefficient ranges cannot degrade small eigenvalues; a tiny
``tol`` bisects to relative accuracy instead).  Bisection from the Gershgorin
interval takes about log2(width / |lambda|) steps before the relative ones,
~290 for lambda ~ e^-157; a caller that knows where the lowest eigenvalue
lies passes a ``window=(lo, hi)`` to the kernels.  The window is used only
once an LDL^T factorisation of the matrix shifted by ``lo`` (LAPACK dpttrf,
the pivot recurrence of the Sturm count) certifies that no eigenvalue lies
at or below ``lo`` (Sylvester); bisection then runs inside (lo, hi] alone.
An eigenvalue above the lowest, number k, may be windowed too when the
caller passes a guard: a tridiagonal G whose factorisation G - lo I
certifies that exactly k eigenvalues lie at or below ``lo``, such as the
Schur complement of a block known to hold k negative eigenvalues
(Haynsworth inertia additivity); groundstate's level is one.  A failed
certificate or an empty window falls back to the index selection, so the
kernels always return eigenvalue k.  A weight, -(p f')' + q f =
lambda w f, makes the pencil (A, diag(w)); :func:`scaled_pencil` returns the
symmetric tridiagonal matrix with the same eigenvalues.  The problems posed
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
    "lowest_of_tridiagonal",
    "lowest_pair_of_tridiagonal",
]

#: LAPACK bisection absolute tolerance, the kernels' default ``tol``; resolves
#: O(1) eigenvalues fully under stiff tails, ~12 levels short of relative accuracy.
BISECTION_TOL = 1e-12

#: a ``tol`` so small that bisection runs to relative accuracy, as the sinh-mapped
#: and log-kappa pencils need (|m| ~ 3e-13 at delta = 0.05, sigma_1 ~ -e^-157 at
#: delta = 0.01); inside a certified window that takes ~53 bisection steps
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
                       T: float, h: float, stop: Callable[[float, float], bool],
                       max_doublings: int) -> tuple[float, float]:
    """(value, T) of a problem on the sinh-mapped grid sqrt(B) z = sinh(t).

    ``level(T, n, samples)``, the problem's value on n interior nodes of t in
    [-T, T], is called on n = odd_points(T, h), then on 2n + 1 (odd n keeps
    z = 0 on a node), and the two are Richardson-extrapolated.  ``samples``
    are ``sample(t)`` at the nodes of grid_nodes(T, 2n + 1), the grid's
    midpoints and nodes interleaved: one call per domain, on the fine grid.
    The domain is doubled in z, T -> asinh(2 sinh T), until ``stop(previous
    value, value)`` holds (the previous value is nan on the first domain);
    TruncationError after ``max_doublings`` doublings.
    """
    prev = value = math.nan
    for _ in range(max_doublings + 1):
        n = odd_points(T, h)
        samples = sample(grid_nodes(T, 4 * n + 3)[1])
        prev, value = value, richardson_step(level(T, n, tuple(s[1::2] for s in samples)),
                                             level(T, 2 * n + 1, samples))[0]
        if stop(prev, value):
            return value, T
        T = math.asinh(2.0 * math.sinh(T))
    raise TruncationError(
        f"mapped-grid value did not stabilize within {max_doublings} domain doublings "
        f"(last shift {abs(value - prev):.3e})",
        last_values=(prev, value),
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


def _lowest(diag: np.ndarray, offdiag: np.ndarray, tol: float, eigvals_only: bool,
            window: tuple[float, float] | None, index: int = 0,
            guard: tuple[np.ndarray, np.ndarray] | None = None):
    """(``eigh_tridiagonal`` output with eigenvalue ``index`` first, the number
    of eigen-solves made): bisected inside ``window`` when dpttrf of the
    guard shifted by its ``lo`` certifies that exactly ``index`` eigenvalues
    lie at or below ``lo`` and the window holds an eigenvalue, else selected
    by index.  The guard of index 0 is the matrix itself; any other index
    needs one."""
    missed = 0
    if window is not None:
        if guard is None and index != 0:
            raise ValueError("a window above the lowest eigenvalue needs a guard")
        lo, hi = window
        guard_diag, guard_offdiag = (diag, offdiag) if guard is None else guard
        if dpttrf(guard_diag - lo, guard_offdiag)[2] == 0:
            found = eigh_tridiagonal(diag, offdiag, eigvals_only=eigvals_only, select="v",
                                     select_range=(lo, hi), tol=tol)
            if (found if eigvals_only else found[0]).size:
                return found, 1
            missed = 1
    return eigh_tridiagonal(diag, offdiag, eigvals_only=eigvals_only, select="i",
                            select_range=(index, index), tol=tol), 1 + missed


def _counted_eigenvalue(diag: np.ndarray, offdiag: np.ndarray, *,
                        tol: float = BISECTION_TOL, index: int = 0,
                        window: tuple[float, float] | None = None,
                        guard: tuple[np.ndarray, np.ndarray] | None = None
                        ) -> tuple[float, int]:
    """(the value :func:`lowest_of_tridiagonal` returns, the eigen-solves it
    took): 2 when a certified window held no eigenvalue, else 1."""
    found, solves = _lowest(diag, offdiag, tol, True, window, index, guard)
    return float(found[0]), solves


def lowest_of_tridiagonal(diag: np.ndarray, offdiag: np.ndarray, *,
                          tol: float = BISECTION_TOL, index: int = 0,
                          window: tuple[float, float] | None = None,
                          guard: tuple[np.ndarray, np.ndarray] | None = None) -> float:
    """Eigenvalue number ``index`` (0-based, ascending; the lowest by default)
    of the symmetric tridiagonal matrix (diag, offdiag), bisected to
    max(``tol``, relative accuracy).

    ``window=(lo, hi)`` bisects inside (lo, hi] once dpttrf certifies that
    exactly ``index`` eigenvalues lie at or below ``lo``; if that fails or the
    window is empty the index selection runs instead.  For the lowest
    eigenvalue the certificate factors the matrix shifted by ``lo``.  Any
    other index needs a ``guard=(G_diag, G_offdiag)``, a tridiagonal matrix
    for which a successful factorisation of G - lo I certifies the count
    (a Schur complement, by Haynsworth inertia additivity); without one a
    window raises ValueError.  The value may then differ from the index
    selection's in the last bit or two, since the bisection starts from
    another interval."""
    return _counted_eigenvalue(diag, offdiag, tol=tol, index=index, window=window,
                               guard=guard)[0]


def lowest_pair_of_tridiagonal(diag: np.ndarray, offdiag: np.ndarray, *,
                               tol: float = BISECTION_TOL,
                               window: tuple[float, float] | None = None
                               ) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue, the same one :func:`lowest_of_tridiagonal` returns
    with the same ``window``, and its unit eigenvector, which costs an
    inverse-iteration solve more."""
    (w, v), _ = _lowest(diag, offdiag, tol, False, window)
    return float(w[0]), v[:, 0]


def _solve_grid(problem: SturmLiouvilleProblem, L: float, n: int, richardson: bool) -> EigenResult:
    e_n = lowest_of_tridiagonal(*build_tridiagonal(problem, L, n)[:2])
    if not richardson:
        return EigenResult(value=e_n, L=L, n=n, extrapolated=False, error_estimate=0.0)
    # n -> 2n+1 halves h exactly and keeps every coarse node on the fine grid,
    # so both solves share one h^2 error family and extrapolation is clean
    # even for coefficients with a kink at a node (e.g. |z|-like potentials).
    n_fine = 2 * n + 1
    e_fine = lowest_of_tridiagonal(*build_tridiagonal(problem, L, n_fine)[:2])
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
