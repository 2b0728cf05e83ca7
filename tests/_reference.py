"""Independent oracles the tests compare the library against.

Each takes a different route from the library's one evaluation path:

- ``a_ell`` evaluates a_ell(z; B) point by point with adaptive ``quad`` of
  the defining integral in the scaled variable zeta = sqrt(B) z (up to the
  switch radius) and with the Gaussian-moment series beyond it; the library
  uses erfcx for ell = 0 and a Chebyshev fit of Gauss-Legendre panels.
- ``a_ell_direct`` integrates in the unscaled variable s, so it does not
  rely on the sqrt(B) scaling identity that ``scaling_check`` tests.
- ``w_ell`` evaluates the kinetic weight w_ell(zeta; 1) by adaptive ``quad``
  of its defining integral; the library takes it from a_ell and a_(ell+1)
  through an exact identity.
- ``y_of_z`` integrates a_0 by ``quad`` (in log t past |t| = 30), the
  forward direction of the map whose inverse the library interpolates
  through Newton roots of the integrated Chebyshev interpolant of a_0 and,
  far out, inverts through log z + gamma plus the integrated 1/z^2 series.
- ``mp_a0`` is a_0(t; 1) from mpmath's exp and erfc with the working
  precision raised to cover exp(t^2/2); the library calls scipy's erfcx.
- ``mp_y_of_z`` gives y(z) and log mu at z <= 1e4 in 30-digit mpmath, by
  quadrature of :func:`mp_a0`.
- ``far_tail`` gives y(z) and log mu at z = e^(log z) in 40-digit mpmath:
  quadrature of a_0 from erfc up to z = 1e4 and its 1/z series integrated
  in closed form beyond, where the library inverts a fixed point in log z.
- ``sturm_count`` is a pure-Python LDL^T sign count, independent of LAPACK
  bisection; ``convergence_study`` reports raw eigenvalues on n, 2n, 4n, ...
  points so that the h^2 order of the scheme can be observed.
- ``T_of_lambda`` is T(lambda) at a fixed lambda on uniform z-grids
  (``sturm_liouville.lowest_eigenvalue``), Richardson-extrapolated and
  domain-doubled, where ``ground_state_lambda`` takes its level from the
  staggered Dirac matrix on the sinh-mapped t-grid.
- ``phi_on`` is Phi(lambda) = T(lambda) - lambda on one of the ground level's
  sinh-mapped grids, T by the index selection of the T-pencil, whose root
  the grid's level must be; at the level |Phi| stays within
  ``RESIDUAL_FLOOR`` times its float floor.
- ``bisected_ground_level`` is ground_state_lambda as it was before its
  levels came from certified inverse iteration: every level by the index
  selection's bisection of the staggered Dirac matrix, degeneracy read off
  the extrapolated level, on the same domains and brackets.
- ``evaluate_GB_quad`` sums the zero-mode trial functional by adaptive
  ``quad`` of point-wise integrands, with the kinetic weight from ``w_ell``,
  where ``trial_bounds.evaluate_GB`` uses fixed Gauss-Legendre panels and one
  array pass on both rules' nodes.
- ``evaluate_GB_two_pass`` is the panel-rule evaluation as it was before it
  became one array pass: each rule evaluates the weights and the profile
  on its own nodes, and w_ell = |zeta| + sum_(j <= ell) a_j evaluates
  a_ell again.  It takes the library's panels, which cover only z >= 0 for
  an even profile, and doubles both rules' sums there as the library does
  (exact in floating point).  The elementwise results and the sums are the
  same, so it must agree with ``evaluate_GB`` bit for bit, including when
  the panel-doubling check raises.

One recorder serves the tests that count eigen-solves: ``record_solves``
logs every call of the kernel ``sturm_liouville.eigenvalue`` with its rows
and the path it took, the certified inverse iteration or the bisections it
ran.  ``record_factorisations`` logs the rows of every LDL^T factorisation
(dpttrf) made through sturm_liouville: window guards, certificates and
brackets alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.special import erfcx

from landaucrit import groundstate, sturm_liouville
from landaucrit import potentials as pot
from landaucrit.potentials import PotentialSpec, VariableMap
from landaucrit.sturm_liouville import EigenResult, SturmLiouvilleProblem
from landaucrit.errors import AccuracyError, TruncationError
from landaucrit.trial_bounds import TrialEvaluation, TrialState, _check_positive_finite, _panel_edges

_QUAD_OPTS = dict(epsabs=1e-300, epsrel=1e-13, limit=400)

SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)


# ---------------------------------------------------------------------------
# a_ell(z; B) and the map y(z) by scalar quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialEvaluation:
    """One potential value with the evaluation regime that produced it."""

    z: float
    value: float
    regime: str  # "quadrature" or "asymptotic"


def _zero_mode_quadrature(ell: int, zeta: float, kernel) -> float:
    """∫ t^(2ell+1) e^(-t^2/2) kernel(t, zeta) dt / (2^ell ell!) by adaptive quadrature."""
    zeta = abs(zeta)
    log_norm = -ell * math.log(2.0) - math.lgamma(ell + 1)

    def integrand(t):
        if t == 0.0:
            return 0.0
        return math.exp(log_norm + (2 * ell + 1) * math.log(t) - 0.5 * t * t) * kernel(t, zeta)

    t_peak = math.sqrt(2 * ell + 1)
    t_max = t_peak + 40.0
    pts = sorted({p for p in (zeta, t_peak) if 0.0 < p < t_max})
    value, _ = quad(integrand, 0.0, t_max, points=pts or None, **_QUAD_OPTS)
    return value


def a_scaled_quadrature(ell: int, zeta: float) -> float:
    """Adaptive quadrature of the defining integral in the scaled variable."""
    return _zero_mode_quadrature(ell, zeta, lambda t, zeta: 1.0 / math.hypot(t, zeta))


def w_ell(ell: int, zeta: float) -> float:
    """w_ell(zeta; 1), the zero-mode average of r, by adaptive quadrature of
    its defining integral: the kernel of a_ell with sqrt(t^2 + zeta^2) in
    place of its inverse."""
    return _zero_mode_quadrature(ell, zeta, math.hypot)


def _a_scaled(ell: int, zeta: float) -> tuple[float, str]:
    if abs(zeta) <= pot.SWITCH_RADIUS:
        return a_scaled_quadrature(ell, zeta), "quadrature"
    return pot._a_scaled_asymptotic(ell, zeta), "asymptotic"


def a_ell(spec: PotentialSpec, z: float) -> PotentialEvaluation:
    """a_ell(z; B) at a single point with regime bookkeeping; relative
    accuracy ~1e-13, the two regimes agree at the switch radius to ~1e-15."""
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    rootB = math.sqrt(spec.B)
    value, regime = _a_scaled(spec.ell, rootB * z)
    return PotentialEvaluation(z=z, value=rootB * value, regime=regime)


def a_ell_direct(spec: PotentialSpec, z: float) -> float:
    """a_ell(z; B) by quadrature in the unscaled variable s."""
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    B = spec.B
    ell = spec.ell
    log_norm = (ell + 1) * math.log(B) - ell * math.log(2.0) - math.lgamma(ell + 1)
    az = abs(z)

    def integrand(s):
        if s == 0.0:
            return 0.0
        return math.exp(log_norm + (2 * ell + 1) * math.log(s) - 0.5 * B * s * s) / math.hypot(s, az)

    s_peak = math.sqrt((2 * ell + 1) / B)
    s_max = s_peak + 40.0 / math.sqrt(B)
    pts = sorted({p for p in (az, s_peak) if 0.0 < p < s_max})
    value, _ = quad(integrand, 0.0, s_max, points=pts or None, **_QUAD_OPTS)
    return value


def scaling_check(B: float, z: float) -> float:
    """Relative residual of a_0(z; B) = sqrt(B) a_0(sqrt(B) z; 1), both sides
    by independent quadratures (unscaled s-integral versus scaled t-integral)."""
    if not (B > 0.0 and math.isfinite(B)):
        raise ValueError(f"B must be positive and finite, got {B}")
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    spec = PotentialSpec(nu=0.5, B=B, ell=0)
    direct = a_ell_direct(spec, z)
    zeta = math.sqrt(B) * z
    scaled = math.sqrt(B) * _a_scaled(0, zeta)[0]
    return abs(direct - scaled) / direct


def _a0_scalar(t: float) -> float:
    return SQRT_PI_OVER_2 * erfcx(abs(t) / math.sqrt(2.0))


def y_of_z(z: float) -> VariableMap:
    """Forward map y(z) = ∫_0^z a_0(t;1) dt with the weight mu at that point."""
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    az = abs(z)
    y, _ = quad(_a0_scalar, 0.0, min(az, pot.SWITCH_RADIUS), **_QUAD_OPTS)
    if az > pot.SWITCH_RADIUS:
        # in u = log t, where t a_0(t) -> 1 is smooth, so quad needs few panels
        tail, _ = quad(lambda u: math.exp(u) * _a0_scalar(math.exp(u)),
                       math.log(pot.SWITCH_RADIUS), math.log(az), **_QUAD_OPTS)
        y += tail
    a_val = _a0_scalar(az)
    y = math.copysign(y, z) if z != 0.0 else 0.0
    return VariableMap(
        z=z,
        y=y,
        mu_at_y=1.0 / a_val,
        log_abs_z=math.log(az) if az > 0.0 else -math.inf,
        log_mu=-math.log(a_val),
    )


#: where far_tail switches from quadrature of a_0 to its asymptotic series;
#: the first term left out, 105/z^9, is below 1e-34 there
_MP_SERIES_START = 10**4


def mp_a0(t):
    """a_0(t; 1) = sqrt(pi/2) exp(t^2/2) erfc(t/sqrt 2) in mpmath, with the
    working precision raised by 2 log10 t: exp(t^2/2) loses that many digits
    to the rounding of its argument."""
    import mpmath

    with mpmath.workdps(mpmath.mp.dps + 2 * int(mpmath.log10(max(t, 1))) + 2):
        return mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(t * t / 2) * mpmath.erfc(t / mpmath.sqrt(2))


def mp_y_of_z(z: float) -> tuple[float, float]:
    """(y(z), log mu = -log a_0(z; 1)) at 0 < z <= 1e4, by 30-digit quadrature
    of :func:`mp_a0` split at 1, 4, 10, 30, 100 and 1000."""
    import mpmath

    with mpmath.workdps(30):
        z = mpmath.mpf(z)
        y = mpmath.quad(mp_a0, [0] + [p for p in (1, 4, 10, 30, 100, 1000) if p < z] + [z])
        return float(y), float(-mpmath.log(mp_a0(z)))


@lru_cache(maxsize=1)
def _mp_y_head():
    import mpmath

    with mpmath.workdps(40):
        return mpmath.quad(mp_a0, [0, 1, 4, 10, 30, 100, 1000, _MP_SERIES_START])


def far_tail(log_z: float) -> tuple[float, float]:
    """(y(z), log mu = -log a_0(z; 1)) at z = e^log_z >= 1e4, in 40 digits.

    Beyond 1e4, a_0 = 1/z - 1/z^3 + 3/z^5 - 15/z^7 and its exact integral
    log z + 1/(2 z^2) - 3/(4 z^4) + 15/(6 z^6) carry y from the quadrature
    of :func:`mp_a0`, so no erfc is evaluated at |z| of e^398."""
    import mpmath

    with mpmath.workdps(40):
        z, start = mpmath.exp(log_z), mpmath.mpf(_MP_SERIES_START)
        if z < start:
            raise ValueError(f"far_tail needs z >= {_MP_SERIES_START}, got e^{log_z}")

        def antiderivative(t):
            return mpmath.log(t) + 1 / (2 * t**2) - mpmath.mpf(3) / (4 * t**4) + mpmath.mpf(15) / (6 * t**6)

        y = _mp_y_head() + antiderivative(z) - antiderivative(start)
        a0 = 1 / z - 1 / z**3 + 3 / z**5 - 15 / z**7
        return float(y), float(-mpmath.log(a0))


# ---------------------------------------------------------------------------
# tridiagonal eigenvalues: Sturm count and observed order
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceStudy:
    results: list[EigenResult]
    observed_orders: list[float]

    @property
    def observed_order(self) -> float:
        return self.observed_orders[-1] if self.observed_orders else math.nan


def convergence_study(problem: SturmLiouvilleProblem, refinements: int) -> ConvergenceStudy:
    """Raw (non-extrapolated) eigenvalues at n, 2n, 4n, ... and fixed L, with
    the orders from Richardson ratios of consecutive differences."""
    if refinements < 2:
        raise ValueError(f"refinements must be at least 2, got {refinements}")
    results = [
        sturm_liouville.lowest_eigenvalue(replace(problem, n=problem.n * 2**k),
                                          richardson=False, stabilize_domain=False)
        for k in range(refinements)
    ]
    orders = []
    for a, b, c in zip(results, results[1:], results[2:]):
        d1, d2 = a.value - b.value, b.value - c.value
        orders.append(math.log2(abs(d1 / d2)) if d2 != 0.0 else math.nan)
    return ConvergenceStudy(results=results, observed_orders=orders)


def sturm_count(diag: np.ndarray, offdiag: np.ndarray, x: float) -> int:
    """Number of eigenvalues of the tridiagonal matrix strictly below x
    (LDL^T sign count with the usual tiny-pivot guard)."""
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


# ---------------------------------------------------------------------------
# T(lambda) of the ground-state fixed point
# ---------------------------------------------------------------------------

def uniform_grid(spec: PotentialSpec, L: float | None = None) -> tuple[float, int]:
    """(L, n) of the uniform grid on [-L, L], by default the ground state's
    first domain, at spacing 0.05/sqrt(max(1, B)): the rule the library used
    before the sinh map, without its point cap, so meant for B up to ~1e2."""
    L = groundstate._default_domain(spec) if L is None else L
    return L, sturm_liouville.odd_points(L, 0.05 / math.sqrt(max(1.0, spec.B)))


def T_of_lambda(spec: PotentialSpec, lam: float, *, L: float | None = None,
                n: int | None = None, richardson: bool = True,
                stabilize_domain: bool = True) -> float:
    """Lowest eigenvalue T(lambda) of the linearized operator
    -(p f')' + q f, p = 1/(1 + lambda + nu a_ell), q = 1 - nu a_ell, on the
    uniform grid (by default ``uniform_grid(spec)``) of
    ``sturm_liouville.lowest_eigenvalue``: Richardson over n -> 2n + 1, then
    the domain doubled at fixed h until T moves by less than 1e-9.

    At lambda = -1 the kinetic denominator reduces to nu a_ell, which is
    positive on any truncated domain, so the solve needs no regularization.
    """
    if not math.isfinite(lam) or lam < -1.0:
        raise ValueError(f"lambda must be finite and >= -1, got {lam}")
    if n is None:
        L, n = uniform_grid(spec, L)
    elif L is None:
        L = groundstate._default_domain(spec)
    problem = SturmLiouvilleProblem(
        lambda z: 1.0 / (1.0 + lam + spec.nu * pot.a_ell_grid(spec, z)),
        lambda z: 1.0 - spec.nu * pot.a_ell_grid(spec, z), L, n)
    return sturm_liouville.lowest_eigenvalue(problem, richardson=richardson,
                                             stabilize_domain=stabilize_domain).value


#: every eigen-solve bisects to relative accuracy, so the |Phi| a grid's level
#: leaves is the float floor eps max|diag| of the T-pencil (<= 0.21 of it
#: measured for nu in [0.05, 0.9], B in [1e-3, 1e8])
RESIDUAL_FLOOR = 4.0


def phi_on(grid: groundstate._Grid, lam: float) -> tuple[float, float]:
    """(Phi(lambda) = T(lambda) - lambda, the float floor eps max|diag| of
    T) on ``grid``; T(lambda) is the lowest eigenvalue of the grid's pencil
    of T - 1 plus the identity."""
    diag, offdiag, _ = grid._pencil(lam)
    diag += 1.0
    T = sturm_liouville.eigenvalue(diag, offdiag)[0]
    return T - lam, float(np.finfo(float).eps * np.max(np.abs(diag)))


def index_level(grid: groundstate._Grid) -> float:
    """Eigenvalue n + 1 of ``grid``'s Dirac matrix, the grid's level, by the
    kernel's index selection: bisected to relative accuracy, with no window."""
    return sturm_liouville.eigenvalue(*grid.dirac(), index=grid.n + 1)[0]


def bisected_ground_level(spec: PotentialSpec, *, h: float = 0.025) -> tuple[float, bool]:
    """(lam, degenerate) of ``ground_state_lambda(spec, h=h)`` with each level
    bisected to relative accuracy by the index selection (:func:`index_level`),
    no window, no centring pass and no factorisation in place of a level: the
    extrapolated level of the first domain where both grids certify their
    brackets, or the degenerate -1 once it is <= -1."""
    rootB = math.sqrt(spec.B)
    for T, n, coarse, fine in sturm_liouville._mapped_domains(
            lambda t: groundstate._samples(spec, t),
            math.asinh(rootB * groundstate._default_domain(spec)), h, groundstate.MAX_DOUBLINGS):
        grids = (groundstate._Grid(spec, T, n, samples=coarse),
                 groundstate._Grid(spec, T, 2 * n + 1, samples=fine))
        levels = [index_level(grid) for grid in grids]
        lam = sturm_liouville.richardson_step(*levels)[0]
        if lam <= -1.0:
            return -1.0, True
        if all(grid.domain_width(level) < math.inf for grid, level in zip(grids, levels)):
            return lam, False
    raise TruncationError(f"bisected ground level {lam!r} not certified", last_values=(lam,))


# ---------------------------------------------------------------------------
# zero-mode trial functional by adaptive quadrature
# ---------------------------------------------------------------------------

def evaluate_GB_quad(nu: float, B: float, trial: TrialState, *,
                     epsrel: float = 1e-10) -> TrialEvaluation:
    """G_B = (1/nu) ∫ w_ell |f'|^2 - nu ∫ a_ell |f|^2 by adaptive ``quad``,
    the integrands evaluated one point at a time (w_ell by :func:`w_ell`),
    split at the profile's breakpoints."""
    if not (0.0 < nu < 1.0):
        raise ValueError(f"nu must lie in (0, 1), got {nu}")
    if B <= 0.0:
        raise ValueError(f"B must be positive, got {B}")
    ell = trial.ell
    profile = trial.profile
    rootB = math.sqrt(B)

    def kin_integrand(z):
        zz = np.array([z])
        return w_ell(ell, rootB * z) / rootB * float(profile.derivative(zz)[0]) ** 2

    def pot_integrand(z):
        zz = np.array([z])
        a = rootB * pot.a_scaled_vec(ell, rootB * zz)
        return float((a * profile.value(zz) ** 2)[0])

    R = profile.support_radius()
    pts = sorted({p for p in profile.breakpoints() if -R < p < R})
    opts = dict(epsabs=1e-300, epsrel=epsrel, limit=300, points=pts or None)
    kin, _ = quad(kin_integrand, -R, R, **opts)
    pot_int, _ = quad(pot_integrand, -R, R, **opts)
    g = kin / nu - nu * pot_int
    j = g + 2.0 * profile.norm_sq()
    return TrialEvaluation(G_B=g, J_at_minus1=j, certified=j <= 0.0)


# ---------------------------------------------------------------------------
# zero-mode trial functional by the panel rule, one array evaluation per rule
# ---------------------------------------------------------------------------

def _w_scaled_two_pass(ell: int, zeta) -> np.ndarray:
    zeta = np.abs(np.asarray(zeta, dtype=float))
    return zeta + sum(pot.a_scaled_vec(j, zeta) for j in range(ell + 1))


def evaluate_GB_two_pass(nu: float, B: float, trial: TrialState, *,
                         epsrel: float = 1e-10) -> TrialEvaluation:
    """The library's panel rule with the weights and the profile evaluated
    once per rule, coarse then split, and w_ell apart from a_ell; an even
    profile's half-line sums are doubled, which is exact."""
    PotentialSpec(nu, B, trial.ell)  # ValueError for nu, B or ell out of range
    _check_positive_finite(epsrel=epsrel)
    ell = trial.ell
    profile = trial.profile
    rootB = math.sqrt(B)
    fold = 2.0 if getattr(profile, "even", False) else 1.0

    def integrals(edges):
        z, wt = pot._panel_nodes(edges)
        kin = wt @ (_w_scaled_two_pass(ell, rootB * z) / rootB * profile.derivative(z) ** 2)
        pot_int = wt @ (rootB * pot.a_scaled_vec(ell, rootB * z) * profile.value(z) ** 2)
        return fold * float(kin), fold * float(pot_int)

    edges = _panel_edges(profile, rootB)
    kin_c, pot_c = integrals(edges)
    split = np.sort(np.concatenate((edges, 0.5 * (edges[:-1] + edges[1:]))))
    kin, pot_int = integrals(split)
    g = kin / nu - nu * pot_int
    gap = abs(g - (kin_c / nu - nu * pot_c))
    if gap > epsrel * (kin / nu + nu * pot_int):
        raise AccuracyError(
            f"panel doubling moved G by {gap:.3e}, more than epsrel = {epsrel:g} "
            f"of kin/nu + nu pot = {kin / nu + nu * pot_int:.6e}")
    j = g + 2.0 * profile.norm_sq()
    return TrialEvaluation(G_B=g, J_at_minus1=j, certified=j <= 0.0)


#: path of a kernel call whose inverse iteration was certified
INVERSE = ("inverse",)

#: path of a centring pass (sturm_liouville._centre): a loose index
#: selection whose value only places the window of a certified solve
CENTRE = ("centre",)


class Solve(NamedTuple):
    """One call of sturm_liouville.eigenvalue: the rows of its matrix, and
    its path, INVERSE or the ``select`` of each bisection in order (("v",),
    ("v", "i") or ("i",)); or one centring pass, with the path CENTRE."""

    rows: int
    path: tuple[str, ...]


class SolveLog(list):
    """The Solve of every kernel call, in order; ``steps`` is every path's
    steps in one flat list."""

    def __init__(self):
        super().__init__()
        self.steps = []


def record_solves(monkeypatch) -> SolveLog:
    """A SolveLog of every call of sturm_liouville.eigenvalue from now on,
    made through the module attribute (the library's own calls are), and of
    every centring pass: a bisection to another tolerance than the kernel's
    RELATIVE_TOL, whose value the kernel never returns."""
    log, selects = SolveLog(), []
    real_eigenvalue, real_eigh = sturm_liouville.eigenvalue, sturm_liouville.eigh_tridiagonal

    def bisection(*args, **kwargs):
        if kwargs["tol"] == sturm_liouville.RELATIVE_TOL:
            selects.append(kwargs["select"])
        else:
            log.append(Solve(len(args[0]), CENTRE))
            log.steps.extend(CENTRE)
        return real_eigh(*args, **kwargs)

    def eigenvalue(diag, offdiag, **kwargs):
        selects.clear()
        found = real_eigenvalue(diag, offdiag, **kwargs)
        path = tuple(selects) or INVERSE
        log.append(Solve(len(diag), path))
        log.steps.extend(path)
        return found

    monkeypatch.setattr(sturm_liouville, "eigh_tridiagonal", bisection)
    monkeypatch.setattr(sturm_liouville, "eigenvalue", eigenvalue)
    return log


def record_factorisations(monkeypatch) -> list[int]:
    """The rows of every dpttrf factorisation made through sturm_liouville
    from now on, in order (the kernel's and positive_definite's alike)."""
    rows, real_factor = [], sturm_liouville.dpttrf

    def factoring(diag, offdiag):
        rows.append(diag.size)
        return real_factor(diag, offdiag)

    monkeypatch.setattr(sturm_liouville, "dpttrf", factoring)
    return rows
