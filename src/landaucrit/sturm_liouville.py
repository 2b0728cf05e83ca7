"""Lowest Dirichlet eigenvalue of -(p f')' + q f on a symmetric interval.

Second-order central differences with p sampled at cell midpoints and q at
the interior nodes give a symmetric tridiagonal matrix whose eigenvalues are
extracted by Sturm-sequence bisection (LAPACK dstebz through
``scipy.linalg.eigh_tridiagonal``, with an explicit absolute tolerance so
badly scaled coefficient ranges cannot degrade small eigenvalues; a tiny
``tol`` bisects to relative accuracy instead).  A weight, -(p f')' + q f =
lambda w f, makes the pencil (A, diag(w)); :func:`scaled_pencil` returns the
symmetric tridiagonal matrix with the same eigenvalues.  A plain Python Sturm count is
exposed as well; tests use it to certify that exactly one eigenvalue sits
below the converged value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import CoefficientError, TruncationError

__all__ = [
    "SturmLiouvilleProblem",
    "EigenResult",
    "ConvergenceStudy",
    "lowest_eigenvalue",
    "convergence_study",
    "odd_points",
    "grid_nodes",
    "richardson_step",
    "build_tridiagonal",
    "tridiagonal",
    "scaled_pencil",
    "lowest_of_tridiagonal",
    "lowest_pair_of_tridiagonal",
    "sturm_count",
]

#: LAPACK bisection absolute tolerance, the kernels' default ``tol``; resolves
#: O(1) eigenvalues fully under stiff tails, ~12 levels short of relative accuracy.
BISECTION_TOL = 1e-12

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


@dataclass(frozen=True)
class ConvergenceStudy:
    results: list[EigenResult]
    observed_orders: list[float]

    @property
    def observed_order(self) -> float:
        return self.observed_orders[-1] if self.observed_orders else math.nan


def odd_points(L: float, h: float) -> int:
    """Odd interior point count n >= 17 for spacing ~h on [-L, L]; odd n keeps
    a kink of the coefficients at 0 on a node under every refinement n -> 2n+1."""
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


def lowest_of_tridiagonal(diag: np.ndarray, offdiag: np.ndarray, *,
                          tol: float = BISECTION_TOL, index: int = 0) -> float:
    """Eigenvalue number ``index`` (0-based, ascending; the lowest by default)
    of the symmetric tridiagonal matrix (diag, offdiag), bisected to
    max(``tol``, relative accuracy)."""
    w = eigh_tridiagonal(diag, offdiag, eigvals_only=True, select="i",
                         select_range=(index, index), tol=tol)
    return float(w[0])


def lowest_pair_of_tridiagonal(diag: np.ndarray, offdiag: np.ndarray, *,
                               tol: float = BISECTION_TOL) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue, the same one :func:`lowest_of_tridiagonal` returns,
    and its unit eigenvector, which costs an inverse-iteration solve more."""
    w, v = eigh_tridiagonal(diag, offdiag, eigvals_only=False, select="i",
                            select_range=(0, 0), tol=tol)
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


def convergence_study(problem: SturmLiouvilleProblem, refinements: int) -> ConvergenceStudy:
    """Eigenvalues at n, 2n, 4n, ... with the observed convergence order.

    Raw (non-extrapolated) values at fixed L, so the h^2 behaviour of the
    scheme is visible; orders come from Richardson ratios of consecutive
    differences.
    """
    if refinements < 2:
        raise ValueError(f"refinements must be at least 2, got {refinements}")
    results = [
        _solve_grid(problem, problem.L, problem.n * 2**k, richardson=False)
        for k in range(refinements)
    ]
    orders = []
    for a, b, c in zip(results, results[1:], results[2:]):
        d1, d2 = a.value - b.value, b.value - c.value
        orders.append(math.log2(abs(d1 / d2)) if d2 != 0.0 else math.nan)
    return ConvergenceStudy(results=results, observed_orders=orders)


def sturm_count(diag: np.ndarray, offdiag: np.ndarray, x: float) -> int:
    """Number of eigenvalues of the tridiagonal matrix strictly below x.

    Standard LDL^T sign count with the usual tiny-pivot guard; pure Python,
    used as an independent certificate on converged eigenvalues.
    """
    tiny = 1e-300
    count = 0
    d = diag[0] - x
    if d < 0.0:
        count += 1
    for i in range(1, len(diag)):
        denom = d if abs(d) > tiny else math.copysign(tiny, d if d != 0.0 else 1.0)
        d = (diag[i] - x) - offdiag[i - 1] ** 2 / denom
        if d < 0.0:
            count += 1
    return count
