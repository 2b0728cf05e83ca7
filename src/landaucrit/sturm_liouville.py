"""Lowest Dirichlet eigenvalue of -(p f')' + q f on a symmetric interval.

Second-order central differences with p sampled at cell midpoints and q at
the interior nodes give a symmetric tridiagonal matrix.  Every eigenvalue the
package needs is one eigenvalue of such a matrix, and one kernel,
:func:`eigenvalue`, finds it.  A caller that knows where the eigenvalue lies
passes a ``window=(lo, hi)``, used only once an LDL^T factorisation of the
matrix shifted by ``lo`` (LAPACK dpttrf, the pivot recurrence of the Sturm
count) certifies that no eigenvalue lies at or below ``lo`` (Sylvester).
Those factors drive inverse iteration (dpttrs), y = (A - lo)^-1 x from a
unit x, with the value rho = lo + x^T y / |y|^2, the Rayleigh quotient of y
taken relative to lo: x^T A x is never formed, since its terms ~1/h^2 would
cancel against an eigenvalue as small as sigma_1 ~ -e^-157 of the log-kappa
pencil.  It stops once rho settles (SETTLE_TOL), 3-11 steps on the
package's pencils, and two more factorisations certify rho (Parlett, The
Symmetric Eigenvalue Problem): the matrix less rho - c |rho| is positive
definite and less rho + c |rho| is not, c = CERTIFICATE_WIDTH, with rho in
(lo, hi].  An eigenvalue above the lowest is windowed the same way on a
staggered matrix, a Dirac matrix whose n + 1 even rows couple only to its n
odd ones, for its eigenvalue number n + 1, the lowest above the even rows'
block: while that block less lo is negative definite, the Schur complement
S of it in the matrix less lo, tridiagonal on the odd rows, has as many
negative eigenvalues as the matrix has beyond n + 1 below lo (Haynsworth
inertia additivity).  So a positive definite S certifies the count at lo,
and its factors solve (A - lo) y = x by eliminating the even rows, one
dpttrs solve with S, and substituting back; the certificate factors S at
rho -+ c |rho|.  groundstate's level is that eigenvalue, 3-8 steps from the
bottom of its window.  On these graded matrices
rho agrees with relative-accuracy bisection to a few 1e-10 of itself, the
relative accuracy that Barlow and Demmel (SIAM J. Numer. Anal. 27, 1990)
predict for scaled diagonally dominant matrices.  The eigenvector is
the last unit iterate, at no extra cost.  Sturm-sequence bisection (LAPACK
dstebz through ``scipy.linalg.eigh_tridiagonal``) is the fallback, under a
single accuracy policy: it runs to relative accuracy (``RELATIVE_TOL``), so
badly scaled coefficient ranges cannot degrade small eigenvalues.  It bisects
inside (lo, hi] where a certificate fails, and from the Gershgorin interval
(about log2(width / |lambda|) steps before the relative ones, ~290 for
lambda ~ e^-157) where there is no window.  A window that is empty or not
certified falls back to the index selection, so the kernel always returns
eigenvalue k.  The one looser bisection, :func:`_centre` to CENTRING_TOL,
centres the window of an eigenvalue that has no value near it yet; the
kernel never returns its value.  :func:`_count` is one Sturm count, the
number of eigenvalues at or below a point (dstebz with a tolerance as wide
as the spectrum, so that it bisects nothing): it bounds eigenvalue k from
below whether or not a staggered matrix's even block less that point is
negative definite, as its Schur complement needs.  A weight,
-(p f')' + q f = lambda w f, makes the pencil (A, diag(w)); :func:`scaled_pencil` returns the symmetric
tridiagonal matrix with the same eigenvalues.  The problems posed
on the sinh-mapped grid sqrt(B) z = sinh(t) (critical_field.m_delta and
groundstate.ground_state_lambda) lay out their domains with one generator,
:func:`_mapped_domains`, which samples their coefficients once per domain:
the Richardson pair's fine grid of 2n + 1 nodes has the coarse grid's nodes
and midpoints as its nodes, bit for bit (the halved step is exact), so one
pass over the fine grid's nodes and midpoints serves both grids, the coarse
one reading its odd samples.  Each caller writes its own loop over the
domains: it solves both grids, Richardson-extrapolates, and stops on the
first domain where both grids certify their Dirichlet-Neumann brackets, or
raises TruncationError once the domains run out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs, dstebz

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

#: LAPACK bisection absolute tolerance, so small that bisection runs to
#: relative accuracy, as the sinh-mapped and log-kappa pencils need (|m| ~
#: 3e-13 at delta = 0.05, sigma_1 ~ -e^-157 at delta = 0.01).  Bisection is
#: the fallback of the certified inverse iteration, and the solve of an
#: eigenvalue with no window; inside a certified window it takes ~53 steps
RELATIVE_TOL = 1e-300

#: relative half-width c of the certificate of an inverse-iteration value rho:
#: the matrix less rho - c |rho| must factor positive definite and less
#: rho + c |rho| must not.  At 1e-9 or 3e-10 every lowest-eigenvalue solve of
#: the direct route (delta in [0.05, 0.99]) and of the Schrodinger one (delta
#: in [0.01, 0.7], h default, 0.02, 0.1 and 0.5) certifies but both grids of
#: delta = 0.01 at h = 0.02 (18 707 rows and more, where the float floor of
#: log B_L is 2e-5); at 1e-10, 9 do not.  The certified values lie within
#: 3.8e-10 relative of the index selection's bisection.  Every ground level
#: solve certifies too: all 268 on groundstate's check lattice (nu 0.05-0.9,
#: B 1e-3-1e8, ell 0, 1, 3 and B/B_L 0.99-1.01, the 4 grid levels just below
#: -1 at B/B_L 0.99999 included), within 1.1e-10 relative of the bisected
#: level.
#: It is also the half-width of the direct route's domain bracket
#: (groundstate._Grid.threshold), whose Dirichlet side is the certificate's
#: top, and it spares the ground level's bracket its Dirichlet side
CERTIFICATE_WIDTH = 1e-9

#: inverse iteration stops once its value moves by at most SETTLE_TOL of
#: itself in one step, 3-11 steps on those pencils and 3-8 on the ground
#: level's Dirac matrices, or after
#: MAX_INVERSE_STEPS steps; either way the certificate decides.  Capped at 6
#: steps, the direct route's solves at delta >= 0.91 do not certify
SETTLE_TOL = 1e-12
MAX_INVERSE_STEPS = 60

#: absolute tolerance of the loose index selection (:func:`_centre`) that
#: centres the window of an eigenvalue with no value near it yet: on the
#: ground level's coarse Dirac matrices it bisects 23-34 times from the
#: Gershgorin interval against 55-66 to relative accuracy, and takes
#: 0.57-0.63 of the time.  groundstate runs it on each domain's nested
#: half-rows grid, at 0.52 the cost of the coarse grid's (4.6 against 8.9 ms
#: over zspace_scan's 17 ground specs); the lower bound of its degeneracy test
#: near that value is certified by :func:`_count`.  The certified solve
#: inside the window returns the value
CENTRING_TOL = 1e-6

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


def _mapped_domains(sample: Callable[[np.ndarray], tuple[np.ndarray, ...]], T: float, h: float,
                    max_doublings: int) -> Iterator[tuple[float, int, tuple, tuple]]:
    """(T, n, coarse samples, fine samples) of each domain t in [-T, T] of the
    sinh-mapped grid sqrt(B) z = sinh(t), the first one's T given, each next
    one doubled in z, T -> asinh(2 sinh T), ``max_doublings`` times.

    The coarse grid has n = odd_points(T, h) interior nodes, the fine one
    2n + 1 (odd n keeps z = 0 on a node).  The fine samples are ``sample(t)``
    at the nodes of grid_nodes(T, 4n + 3), the fine grid's midpoints and nodes
    interleaved (a grid's midpoint samples are its even ones, its node samples
    its odd ones); the coarse samples are their odd entries, the fine grid's
    nodes.  Nothing is sampled for a domain the caller does not ask for.
    """
    for _ in range(max_doublings + 1):
        n = odd_points(T, h)
        samples = sample(grid_nodes(T, 4 * n + 3)[1])
        yield T, n, tuple(s[1::2] for s in samples), samples
        T = math.asinh(2.0 * math.sinh(T))


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
               vector: bool = False) -> tuple[float, np.ndarray | None, int]:
    """(eigenvalue number ``index`` (0-based, ascending; the lowest by
    default) of the symmetric tridiagonal matrix (diag, offdiag), its unit
    eigenvector if ``vector`` else None, the bisections run), to relative
    accuracy.

    ``window=(lo, hi)`` is used once dpttrf certifies that exactly ``index``
    eigenvalues lie at or below ``lo``: for the lowest eigenvalue it factors
    the matrix less ``lo``; above the lowest the matrix must be staggered
    (:func:`_shifted`), with ``index`` its count of even rows, and it factors
    the Schur complement of their block less ``lo`` (Haynsworth); any other
    windowed index raises ValueError.  Inverse iteration from those factors
    returns the value rho with its vector, certified by factorisations at
    rho -+ CERTIFICATE_WIDTH |rho| and rho in (lo, hi] (module docstring); it
    lies within CERTIFICATE_WIDTH |rho| of the index selection's bisection,
    and no bisection runs.  Where the inverse iteration is not certified,
    bisection runs inside (lo, hi], and where that window is empty or not
    certified, the index selection runs instead; an empty certified window
    counts two bisections.  A windowed bisection may differ from the index
    selection in the last bit or two, since it starts from another interval,
    and its eigenvector costs an inverse-iteration solve more.
    """
    selections = [("i", (index, index))]
    if window is not None:
        staggered = index > 0
        if staggered and 2 * index != diag.size + 1:
            raise ValueError("a window above the lowest eigenvalue needs a staggered matrix "
                             "whose even rows number index")
        shifted = _shifted(diag, offdiag, window[0], staggered)
        factor_d, factor_e, info = dpttrf(*shifted) if shifted is not None else (None, None, 1)
        if info == 0:
            found = _inverse_iteration(diag, offdiag, window, staggered,
                                       _solver(diag, offdiag, window[0], staggered,
                                               factor_d, factor_e))
            if found is not None:
                return found[0], found[1] if vector else None, 0
            selections.insert(0, ("v", window))
    for bisections, (select, select_range) in enumerate(selections, 1):
        found = eigh_tridiagonal(diag, offdiag, eigvals_only=not vector, select=select,
                                 select_range=select_range, tol=RELATIVE_TOL)
        values, vectors = found if vector else (found, None)
        if values.size:
            break
    return float(values[0]), None if vectors is None else vectors[:, 0], bisections


def _centre(diag: np.ndarray, offdiag: np.ndarray, index: int) -> float:
    """Eigenvalue ``index`` of (diag, offdiag) by the index selection to
    CENTRING_TOL only: the centre of a window inside which :func:`eigenvalue`
    then certifies the eigenvalue, never a value the package returns."""
    return float(eigh_tridiagonal(diag, offdiag, eigvals_only=True, select="i",
                                  select_range=(index, index), tol=CENTRING_TOL)[0])


def _count(diag: np.ndarray, offdiag: np.ndarray, bound: float) -> int:
    """The number of eigenvalues of (diag, offdiag) at or below ``bound``, by
    one Sturm count: LAPACK dstebz over (vl, bound], vl below the Gershgorin
    interval, with an absolute tolerance as wide as that interval, so that it
    counts at both ends and bisects no further.  Unlike the window guard of
    :func:`eigenvalue` it needs no factorisation to succeed."""
    radius = np.zeros_like(diag)
    radius[:-1] = np.abs(offdiag)
    radius[1:] += np.abs(offdiag)
    low, high = float((diag - radius).min()), float((diag + radius).max())
    vl = min(low, bound) - 1.0
    count, *_, info = dstebz(diag, offdiag, 1, vl, bound, 0, 0, high - vl, b"E")
    if info:
        raise ValueError(f"dstebz failed with info = {info}")
    return count


def _shifted(diag: np.ndarray, offdiag: np.ndarray, shift: float,
             staggered: bool) -> tuple[np.ndarray, np.ndarray] | None:
    """The tridiagonal matrix whose positive definiteness certifies that the
    eigenvalues at or below ``shift`` are exactly those below the sought one:
    the matrix less ``shift`` for the lowest eigenvalue.

    A staggered matrix of size 2n + 1 has its n + 1 even rows coupled only to
    its odd neighbours (a Dirac matrix, g at the even rows and f at the odd
    ones); while the block of its even rows less ``shift`` is negative
    definite, it has n + 1 + (the negative eigenvalues of the Schur
    complement S of that block) eigenvalues below ``shift`` (Haynsworth
    inertia additivity), so a positive definite S puts exactly n + 1 there.
    S is returned, tridiagonal on the odd rows, or None where that block is
    not negative definite."""
    if not staggered:
        return diag - shift, offdiag
    g = diag[0::2] - shift
    if not g.max() < 0.0:
        return None
    left, right = offdiag[0::2], offdiag[1::2]
    return (diag[1::2] - shift - left * left / g[:-1] - right * right / g[1:],
            -right[:-1] * left[1:] / g[1:-1])


def _solver(diag: np.ndarray, offdiag: np.ndarray, shift: float, staggered: bool,
            factor_d: np.ndarray, factor_e: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """x -> (A - shift)^-1 x from the dpttrf factors of :func:`_shifted`: one
    dpttrs solve, on a staggered matrix of the Schur complement S between
    eliminating the even rows' block G and substituting back,
    S y_odd = x_odd - C^T G^-1 x_even, y_even = G^-1 (x_even - C y_odd)."""
    if not staggered:
        return lambda x: dpttrs(factor_d, factor_e, x)[0]
    g = diag[0::2] - shift
    left, right = offdiag[0::2], offdiag[1::2]

    def solve(x):
        u = x[0::2] / g
        y = np.empty_like(x)
        y_odd = y[1::2] = dpttrs(factor_d, factor_e, x[1::2] - left * u[:-1] - right * u[1:])[0]
        coupled = np.zeros_like(u)
        coupled[:-1] = left * y_odd
        coupled[1:] += right * y_odd
        y[0::2] = u - coupled / g
        return y

    return solve


def _sought_above(diag: np.ndarray, offdiag: np.ndarray, shift: float,
                  staggered: bool) -> bool:
    """Whether the sought eigenvalue lies above ``shift``: :func:`_shifted`
    factors positive definite there.  False also where a staggered matrix's
    even block less ``shift`` is not negative definite, which a certificate
    meets only at its bottom: its top lies above lo, where the block was."""
    shifted = _shifted(diag, offdiag, shift, staggered)
    return shifted is not None and positive_definite(*shifted)


def _inverse_iteration(diag: np.ndarray, offdiag: np.ndarray, window: tuple[float, float],
                       staggered: bool, solve: Callable[[np.ndarray], np.ndarray]
                       ) -> tuple[float, np.ndarray] | None:
    """(rho, unit x): the sought eigenvalue of (diag, offdiag) and its
    eigenvector by inverse iteration, ``solve`` applying the inverse of the
    matrix less lo, window = (lo, hi), or None where rho is not certified."""
    lo, hi = window
    # with negative off-diagonals, as on every pencil here, the lowest
    # eigenvector has one sign, so the uniform start overlaps it.  The Schur
    # complement of a staggered matrix with positive couplings, as the Dirac
    # matrix's, has positive off-diagonals, and its lowest eigenvector, the
    # sought one's odd rows, alternates in sign: so does the start there,
    # with 0 on the even rows
    if staggered:
        x = np.zeros(diag.size)
        x[1::4], x[3::4] = 1.0, -1.0
        x /= math.sqrt(float(x @ x))
    else:
        x = np.full(diag.size, diag.size ** -0.5)
    rho = math.inf
    for _ in range(MAX_INVERSE_STEPS):
        y = solve(x)
        norm = math.sqrt(float(y @ y))
        last, rho = rho, lo + float(x @ y) / norm**2
        x = y / norm
        if not abs(rho - last) > SETTLE_TOL * abs(rho):  # a nan stops too, uncertified
            break
    width = CERTIFICATE_WIDTH * abs(rho)
    if (lo < rho <= hi and _sought_above(diag, offdiag, rho - width, staggered)
            and not _sought_above(diag, offdiag, rho + width, staggered)):
        return rho, x
    return None


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
