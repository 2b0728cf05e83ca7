"""Lowest level of the effective 1D theory as one eigenvalue of a Dirac matrix.

For fixed lambda the Rayleigh functional is the quadratic form of the linear
operator -(p f')' + q f with p = 1/(1 + lambda + nu a_ell) and
q = 1 - nu a_ell; its lowest Dirichlet eigenvalue T(lambda) is nonincreasing
in lambda, so Phi(lambda) = T(lambda) - lambda has a unique root in (-1, 1]
whenever Phi(-1) > 0.  If Phi(-1) <= 0 the level has reached the lower
continuum edge and the solve reports the degenerate value -1 (on the grids:
an extrapolated level at or below -1).

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
eigen-solve with no iteration in lambda, and it lies below -1 exactly when
Phi(-1) < 0.  At lambda = -1 the T-pencil less the identity is the direct
route's problem -(f'/(nu a))' - nu a f = m f, and critical_field.m_delta
solves it on this grid (:meth:`_Grid.threshold`), so T(-1) = 1 + sqrt(B) m(nu)
holds grid by grid by construction.

The truncation to |z| <= L = sinh(T)/sqrt(B) is bounded grid by grid by
Dirichlet-Neumann bracketing (Reed and Simon IV, XIII.15).  Continue a grid
past +-T with the same map and step to a longer one, and take lo with the g
block negative definite on it, 1 + lo + nu a > 0.  The longer grid's T-form
is the Neumann form inside (the T-pencil with p_mid[0] = p_mid[-1] = 0,
f' = 0 at the ends: the Schur complement of H without its two end g rows,
the Dirichlet pencil with its two end diagonal entries recomputed),
plus the form outside, at least 1 - nu a(L) times the norm as a_ell falls
with |z|, plus the two cut links, which are nonnegative.  So its T is at
least min(T_N, 1 - nu a(L)), and at most T, whose trial functions vanish
outside.  If lo < 1 - nu a(L) and T_N(lo) - lo is positive definite (an
LDL^T factorisation: by Haynsworth the Neumann level lies above lo), its
Phi is positive up to lo, and its level lies in (lo, level].
:meth:`_Grid.domain_width` certifies (lo, hi] = level -+ DOMAIN_TOL/4 this
way, the top by a T(hi) - hi that is not positive definite, so that the
bracket does not rest on the level's solve, with 1 - nu a at the grid's end
samples, just inside |z| = L.  A level that the kernel certified has shown
that already: T(x) - x is not positive definite from its certificate's top
x = rho + CERTIFICATE_WIDTH |rho| on, below hi, so only a bisected level
gets T(hi) - hi factored.  For lo > -1 it holds on the whole line, and
its factorisations check the level too, with AccuracyError: a T(hi) - hi
that is positive definite puts the grid's level above hi, and where the
Neumann side fails, a T(lo) - lo that is not puts it at or below lo.  Only
a failing Neumann side or outside condition doubles the domain.  A level
just below -1, which a coarse grid can have under an extrapolated level
above -1 near the critical field, is bracketed on every longer grid up to
|z| = L* with 1 + lo + nu a(L*) = 0; past L* the level meets the lower
continuum, so its failing bracket doubles.  With both grids of a pair
certified, each to a width w = DOMAIN_TOL/2, the extrapolated level lies
within (4 w_fine + w_coarse)/3 = 5 DOMAIN_TOL/6 of the extrapolation of the
longer grids' levels.  Over nu 0.05-0.9, B 1e-3-1e8 and ell 0, 1, 3 every
grid of the first domain certifies, with its level at least 4.1e-4 below
1 - nu a at its ends and its Neumann level less than 1e-13 below it.

The same certificate bounds the truncation of the threshold T(-1) - 1, the
direct route's m (critical_field.m_delta), on its own pencil: its form
outside is at least -nu a(L), the kinetic part being nonnegative, so m on a
longer grid lies in (lo, hi] if lo < -nu a at the end samples, the Neumann
pencil at lambda = -1 less lo is positive definite and the Dirichlet one
less hi is not.  The g block 1 + lambda + nu a = nu a is positive there, so
it needs no test.  :meth:`_Grid.threshold` takes (lo, hi] = m -+
CERTIFICATE_WIDTH |m|, the kernel's certificate of m (sturm_liouville),
whose top is the Dirichlet side on the same matrix and shift: only where
the kernel bisected m does the Dirichlet pencil less hi get factored here.

The domains come from the mapped-grid generator of sturm_liouville, which
doubles them in z and samples the potential once per domain for both grids
of the pair.  Every domain of ground_state_lambda's loop runs the same
steps.  A loose index selection of the coarse grid's H
(sturm_liouville.CENTRING_TOL) gives c_loose, which only places a window
and is never returned.  The degeneracy test below runs from its lower bound
c_loose - CENTRING_TOL.  Where that does not decide, the coarse level is
solved in a window centred on c_loose, then the fine one in a window
centred on the coarse level.  The loop Richardson-extrapolates over
n -> 2n + 1 and stops on the first domain whose extrapolated level is
degenerate or whose two grids both certify their brackets.  Every level is
solved inside (lo, hi] around its centre c, w = min(LEVEL_WINDOW,
(1 - c)/32), lo = max(c - w, -1) and hi = max(c, lo) + w: the bottom is
clipped at -1, where the g block -(1 + lo + nu a) = -nu a is still negative
definite, and the window never inverts or closes.  By the inertia count
above, the Schur complement of the g block of H - lo, the T-pencil at
lambda = lo shifted by lo up to the sign of its off-diagonal, factors
positive definite iff exactly n + 1 eigenvalues of H lie at or below lo
(the gap min-max of Dolbeault, Esteban and Sere used as a Sylvester
certificate).  The kernel (sturm_liouville.eigenvalue) forms it from H, and
its factors drive shifted inverse iteration on H from lo, each step a solve
with it between eliminating g and substituting back.  Two more
factorisations certify the value rho: the Schur complement at rho - c |rho|
is positive definite and at rho + c |rho| is not, c = CERTIFICATE_WIDTH.
Where that fails (the shift converged to another eigenvalue, or the window
missed), the kernel bisects inside the window and then by index, so the
level is always eigenvalue n + 1.  The half-width shrinks with the distance
to the upper continuum edge, where the next bound level crowds the window's
bottom below B ~ 0.1.

A domain's extrapolated level (4f - c)/3, f the fine level and c the coarse
one, is at most -1 iff f <= (c - 3)/4, which f <= x = (lower - 3)/4 implies
for any lower <= c.  Where the window around lower is clipped at -1 and
1 + x + nu a > 0 at every midpoint, the g block of H - x is negative
definite, so f <= x iff T(x) - x is not positive definite: one
factorisation.  From lower = c_loose - CENTRING_TOL it takes the place of
both levels of the domain where it shows f <= x; where it does not, both
levels are solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import sturm_liouville
from .errors import AccuracyError, TruncationError
from .potentials import PotentialSpec, a_ell_grid

__all__ = ["FixedPointResult", "ground_state_lambda", "ground_state_per_ell"]

# First domain |z| <= max(C_FIELD/sqrt(B), C_COULOMB/nu, 10), doubled only
# while its Dirichlet-Neumann bracket does not certify.
C_FIELD = 20.0
C_COULOMB = 30.0

# Each grid's Dirichlet-Neumann bracket is (lo, hi] = level -+ DOMAIN_TOL/4,
# whose factorisations also check the level (AccuracyError; module
# docstring).  ground_state_lambda stops on the first domain where both grids
# certify it, which bounds the extrapolated level's domain error by
# 5/6 DOMAIN_TOL; otherwise it doubles the domain, at most MAX_DOUBLINGS
# times before TruncationError.
DOMAIN_TOL = 1e-7
MAX_DOUBLINGS = 6

# Largest half-width of the window of every level solve, around the loose
# level of the centring pass (coarse grid) or the coarse level (fine grid).
# The largest shift measured between a level and its centre is 6.5e-5 (nu in
# [0.05, 0.9], B in [1e-3, 1e8], ell 0-3), from a coarse level to its fine
# one; from the loose level to the coarse one it is 4.8e-7.  The window's
# bottom is the shift of the level's inverse iteration, so the half-width is
# (1 - c)/32 where that is smaller, c the centre: at B <= 0.1 the next bound
# level lies closer than LEVEL_WINDOW, and from the fixed shift the
# iteration takes up to 36 steps where the scaled one takes 4-6 (nu
# 0.05-0.9, B 1e-3-0.1, ell 0, 1, 3).  A window reaching -1 is clipped there
# (module docstring).
LEVEL_WINDOW = 1e-3


@dataclass(frozen=True)
class FixedPointResult:
    """Converged lowest level lambda_1(nu, B) with solve diagnostics.

    ``iterations`` counts the eigen-solves of the call, one per level solved;
    a window that held no eigenvalue counts twice, and a domain whose
    degeneracy one factorisation settles counts once, for the pass that
    centred it, in place of its two levels.
    |z| <= L = sinh(T)/sqrt(B) is the certified domain (the last one of the
    call), and n is the point count of its fine t-grid.  ``domain_error`` is
    the certified bound (4 w_fine + w_coarse)/3 on the truncation error of
    ``lam``, each grid's bracket width w being DOMAIN_TOL/2, so
    5/6 DOMAIN_TOL up to rounding, from brackets that also certify each
    level's index; a degenerate result reports 0.
    """

    lam: float
    iterations: int
    degenerate: bool
    L: float
    n: int
    domain_error: float

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
    shared by the level, its brackets and the threshold.

    ``samples`` are :func:`_samples` at the nodes of grid_nodes(T, 2n + 1),
    taken here when not given.  ``solves``, the eigen-solves of the grid's
    last :meth:`level` (the only method that sets it; 1 before), is 2 where
    its certified window held no eigenvalue, so that the index selection ran
    after the bisection, and 1 otherwise.  ``top`` is the top
    rho + CERTIFICATE_WIDTH |rho| of the kernel's certificate of that level,
    the point from which T(x) - x is known not to be positive definite, or
    inf where the level was bisected."""

    def __init__(self, spec: PotentialSpec, T: float, n: int, *,
                 samples: tuple[np.ndarray, np.ndarray] | None = None):
        self.n = n
        self.h = 2.0 * T / (n + 1)
        self.dz, a = (_samples(spec, sturm_liouville.grid_nodes(T, 2 * n + 1)[1])
                      if samples is None else samples)
        self.nu_a = spec.nu * a
        self.solves = 1
        self.top = math.inf

    def _pencil(self, lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The pencil of T(lambda) - 1, -(p/z' f_t)_t - nu a z' f = (T - 1) z' f
        with p = 1/(1 + lambda + nu a), as its scaled symmetric tridiagonal
        matrix (diagonal, offdiagonal, Neumann diagonal).  The identity is left
        out so that T(-1) - 1 = sqrt(B) m keeps its relative accuracy (|m| ~
        3e-13 at nu = 0.05).  The Neumann pencil drops the two end links,
        p_mid[0] = p_mid[-1] = 0: f' = 0 at the ends, the Schur complement of
        the Dirac matrix without its two end g rows.  It differs only in the
        two end diagonal entries, recomputed here as the assembly would."""
        dz_nodes = self.dz[1::2]
        p_mid = 1.0 / (self.dz[0::2] * (1.0 + lam + self.nu_a[0::2]))
        q_node, scale = -self.nu_a[1::2] * dz_nodes, dz_nodes ** -0.5
        diag, offdiag = sturm_liouville.scaled_pencil(p_mid, q_node, scale, self.h)
        neumann, ends = diag.copy(), [0, -1]
        neumann[ends] = (p_mid[[1, -2]] / self.h**2 + q_node[ends]) * scale[ends] * scale[ends]
        return diag, offdiag, neumann

    def threshold(self, window: tuple[float, float]) -> tuple[float, float]:
        """(m, width): T(-1) - 1 on this grid, the lowest eigenvalue of the
        direct route's pencil -(f'/(nu a))' - nu a f = m f, which is m(nu, B)
        = sqrt(B) m(nu), by the kernel's certified inverse iteration inside
        ``window``; and the width of (lo, hi] = m -+ CERTIFICATE_WIDTH |m| if
        this grid certifies that it holds m of every longer grid that
        continues it (module docstring), else inf.  The form outside, at least
        -nu a at the end samples, must lie above lo, the Neumann pencil less
        lo must be positive definite and the Dirichlet pencil less hi must
        not.  The kernel's certificate of m has factored the last one; only
        where the kernel bisected is it factored here, so that the bracket
        never rests on a bisection."""
        pencil = self._pencil(-1.0)
        m, _, bisections = sturm_liouville.eigenvalue(*pencil[:2], window=window)
        slack = sturm_liouville.CERTIFICATE_WIDTH * abs(m)
        lo, hi = m - slack, m + slack
        if (lo < -self.nu_a[[0, -1]].max() and self._above(pencil, lo, neumann=True)
                and not (bisections and self._above(pencil, hi))):
            return m, hi - lo
        return m, math.inf

    def window(self, centre: float) -> tuple[float, float]:
        """(lo, hi] around the level c = ``centre``, w = min(LEVEL_WINDOW,
        (1 - c)/32): (c - w, c + w] with its bottom clipped at -1, lo =
        max(c - w, -1), and its top kept above it, hi = max(c, lo) + w."""
        width = min(LEVEL_WINDOW, (1.0 - centre) / 32.0)
        lo = max(centre - width, -1.0)
        return lo, max(centre, lo) + width

    def centring(self) -> float:
        """A loose level, to CENTRING_TOL, from the kernel's index selection:
        the centre of the coarse level's window on every domain, never a
        level the call returns."""
        return sturm_liouville._centre(*self.dirac(), self.n + 1)

    def level(self, centre: float) -> float:
        """Eigenvalue n + 1 of the scaled staggered H, g at the midpoints
        interleaved with f at the nodes: the root of Phi on this grid, and
        below -1 iff Phi(-1) < 0.  It is the kernel's certified inverse
        iteration inside the :meth:`window` around ``centre``, a level close
        to this grid's, guarded at its bottom lo by the Schur complement of
        the g block -(1 + lo + nu a), the T-pencil shifted by lo (module
        docstring)."""
        level, _, bisections = sturm_liouville.eigenvalue(*self.dirac(), index=self.n + 1,
                                                          window=self.window(centre))
        self.solves = max(bisections, 1)
        width = sturm_liouville.CERTIFICATE_WIDTH * abs(level)
        self.top = math.inf if bisections else level + width
        return level

    def dirac(self) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal, offdiagonal) of the scaled staggered Dirac matrix H of
        size 2n + 1, g at the midpoints interleaved with f at the nodes."""
        diag = np.empty(2 * self.n + 1)
        diag[0::2] = -(1.0 + self.nu_a[0::2])
        diag[1::2] = 1.0 - self.nu_a[1::2]
        return diag, 1.0 / (self.h * np.sqrt(self.dz[:-1] * self.dz[1:]))

    def degenerate(self, lower: float) -> bool:
        """Whether this fine grid's level is at most x = (lower - 3)/4, for a
        ``lower`` at most the coarse level, by one factorisation where the
        window around ``lower`` is clipped at -1 and the g block of H - x is
        negative definite (module docstring); False where that does not
        decide it."""
        x = 0.25 * (lower - 3.0)
        return (self.window(lower)[0] == -1.0 and 1.0 + x + self.nu_a[[0, -1]].min() > 0.0
                and not self._above(self._pencil(x), x - 1.0))

    def domain_width(self, level: float) -> float:
        """Width DOMAIN_TOL/2 of (lo, hi] = level -+ DOMAIN_TOL/4 if this grid
        certifies that it holds the level of every longer grid that continues
        it (module docstring), else inf.  The g block must stay negative
        definite at lo, 1 - nu a at the end samples must lie above lo, T(lo)
        - lo on the Neumann pencil must be positive definite and T(hi) - hi
        must not, so that the bracket does not rest on the bisection: that
        holds from the kernel's certificate ``top`` on, so T(hi) is factored
        only where hi lies below it.  Where lo > -1, a Dirichlet side that
        fails raises AccuracyError: the grid's level lies above hi, or at or
        below lo (module docstring)."""
        lo, hi = level - 0.25 * DOMAIN_TOL, level + 0.25 * DOMAIN_TOL
        ends = self.nu_a[[0, -1]]
        if 1.0 + lo + ends.min() <= 0.0 or lo - 1.0 >= -ends.max():
            return math.inf
        pencil = self._pencil(lo)
        if not self._above(pencil, lo - 1.0, neumann=True):
            if lo > -1.0 and not self._above(pencil, lo - 1.0):
                raise AccuracyError(f"the grid's level lies at or below lo = {lo!r}")
            return math.inf
        if hi < self.top and self._above(self._pencil(hi), hi - 1.0):
            if lo > -1.0:
                raise AccuracyError(f"the grid's level lies above hi = {hi!r}")
            return math.inf
        return hi - lo

    @staticmethod
    def _above(pencil: tuple[np.ndarray, np.ndarray, np.ndarray], shift: float, *,
               neumann: bool = False) -> bool:
        """Whether T(lam) - 1 - shift is positive definite, the ``pencil``
        being :meth:`_pencil` at lam, i.e. its lowest eigenvalue lies above
        shift; for shift = lam - 1 (Haynsworth, with the g block negative
        definite at lam) the level of H lies above lam.  ``neumann`` takes the
        Neumann pencil, H without its two end g rows."""
        diag, offdiag, neumann_diag = pencil
        return sturm_liouville.positive_definite((neumann_diag if neumann else diag) - shift,
                                                 offdiag)


def ground_state_lambda(spec: PotentialSpec, *, h: float = 0.025) -> FixedPointResult:
    """Ground state lambda_1(nu, B) of the lowest-Landau effective theory.

    The level is eigenvalue n + 1 of the staggered Dirac matrix (module
    docstring) on the sinh-mapped t-grid of step h and on its 2n + 1-point
    refinement, Richardson-extrapolated over the two; the first domain is
    |z| <= max(C_FIELD/sqrt(B), C_COULOMB/nu, 10).  Each grid certifies a
    Dirichlet-Neumann bracket of its level of width w = DOMAIN_TOL/2 (module
    docstring), the fine grid only once the coarse one did, and the call
    stops on the first domain where both grids certify: the extrapolated
    level's domain error is then at most (4 w_fine + w_coarse)/3 =
    5/6 DOMAIN_TOL.  A domain that does not certify is doubled in z, at most
    MAX_DOUBLINGS times before TruncationError, which names the last
    extrapolated level.  Every domain centres its coarse level's window on a
    loose index selection and its fine level's on the coarse level, and every
    level comes from the kernel's certified inverse iteration inside its
    window.  The result is degenerate, lam = -1, as soon as the extrapolated
    level is <= -1: a wider domain only lowers it, and near -1 one
    factorisation from the loose level may decide that in place of both
    levels.  A level outside its grid's bracket raises AccuracyError at
    once.
    """
    rootB = math.sqrt(spec.B)
    solves = 0
    for T, n, coarse_samples, fine_samples in sturm_liouville._mapped_domains(
            lambda t: _samples(spec, t), math.asinh(rootB * _default_domain(spec)), h,
            MAX_DOUBLINGS):
        coarse = _Grid(spec, T, n, samples=coarse_samples)
        fine = _Grid(spec, T, 2 * n + 1, samples=fine_samples)
        loose = coarse.centring()
        # near -1 one factorisation may put the fine level at or below (c - 3)/4,
        # c the coarse level, already from the loose level's lower bound
        if fine.degenerate(loose - sturm_liouville.CENTRING_TOL):
            level_coarse, level_fine = loose, -math.inf
            solves += 1
        else:
            level_coarse = coarse.level(loose)
            level_fine = fine.level(level_coarse)
            solves += coarse.solves + fine.solves
        lam = sturm_liouville.richardson_step(level_coarse, level_fine)[0]
        # a degenerate level needs no bracket, and the fine grid's bracket is
        # not tried once the coarse one failed
        bound = 0.0 if lam <= -1.0 else coarse.domain_width(level_coarse)
        if 0.0 < bound < math.inf:
            bound = (4.0 * fine.domain_width(level_fine) + bound) / 3.0
        if bound < math.inf:
            return FixedPointResult(lam=min(max(lam, -1.0), 1.0), iterations=solves,
                                    degenerate=lam <= -1.0, L=math.sinh(T) / rootB, n=fine.n,
                                    domain_error=bound)
    raise TruncationError(f"ground level lam = {lam!r} not certified within {MAX_DOUBLINGS} "
                          "domain doublings", last_values=(lam,))


def ground_state_per_ell(spec: PotentialSpec,
                         ells: Sequence[int] = (0, 1, 2)) -> list[FixedPointResult]:
    """Ground state per Landau index at fixed (nu, B); ell = 0 is the minimum."""
    return [ground_state_lambda(replace(spec, ell=ell)) for ell in ells]
