"""Critical field B_L of the lowest-Landau theory, by two routes, with brackets.

At lambda = -1 the ground-level fixed point (groundstate) has the exact
threshold value T(-1; nu, B) = 1 + sqrt(B) m(nu), where m(delta) < 0 is the
lowest eigenvalue of the linear problem -(f'/(delta a_0))' - delta a_0 f at
B = 1, which scales as m(delta, B) = sqrt(B) m(delta, 1).  The level reaches
-1 once T(-1) <= -1, so

    sqrt(B_L) = 2 / |m(delta)| = 2 delta / kappa(delta),
    kappa(delta) = -delta m(delta).

Route one ("direct_scaling") takes m(delta) from groundstate's threshold
pencil, the ground level's T(-1) - 1 at nu = delta, on its grid in the
longitudinal coordinate z mapped by sqrt(B) z = sinh(t): a grid uniform in t
is fine near z = 0 and uniform in log z far out, so the eigenfunction width
~ e^(pi/2delta) costs about pi/(delta h) rows, not e^(pi/2delta)/h.  The
weight cosh(t)/sqrt(B) gives a symmetric-definite pencil, bisected to relative
accuracy down to DELTA_MIN_DIRECT = 0.05.  Route two ("schrodinger_form") takes
y with dy = a_0 dz and mu = 1/a_0, where the same problem reads
-g'' - delta^2 g = -kappa mu g, i.e. delta^2 = E_1(kappa) for the ground
level of -d^2/dy^2 + kappa mu.  So -kappa is the lowest eigenvalue of the
pencil (A, M), A = -d^2/dy^2 - delta^2, M = diag(mu): higher modes need
wider wells and have smaller kappa.  Scaled to the symmetric tridiagonal
S A S, S = diag(mu^-1/2), it has the inertia of A - sigma M (Sylvester), so
one bisection per grid gives kappa with no root loop.  log mu is sampled
once per call, on the finer grid of a pair (n and 2n + 1 points on [-Y, Y],
Y = pi/(2 delta) + 30), and log kappa Richardson-extrapolated over the pair;
in logs this reaches delta = 0.01 (kappa ~ e^-157).  The step follows the
rule h(delta) = min(0.2, max(0.02, 0.01/delta)), which balances the pencil's
float floor (~eps/h^2 over dE_1/dlog kappa ~ 4 delta^3/pi) against its
Richardson remainder (~h^4).  Between delta = 0.05 and 0.5 a coarse grid
then has about (pi + 60 delta)/0.01 rows: the width pi/delta of the
eigenfunction always costs about 314, and only the padding of Y grows.  At
delta = 0.01 the float floor of log B_L is 2e-7, where the fixed step 0.02 of
earlier versions gave 2e-5.  Analytic two-sided estimates for
E_1 (step-potential lower side, cosine-trial upper side) come with every
solve.

The small-delta closed form (:func:`critical_field_asymptotic`),

    log B_L = pi/delta + log(4 delta^2) - (gamma_E + ln 2)
              - (2/delta) arg Gamma(1 + 2i delta) + O(kappa),

is exact to double precision below delta ~ 0.07 and checks both routes
there.  Both routes' pencils bisect only inside a window on its
log kappa, from WINDOW_FLOOR below to WINDOW_GRID step^2 + 0.6 kappa +
WINDOW_FLOOR above, certified to hold the lowest eigenvalue
(sturm_liouville), not across the whole Gershgorin interval: 43-49
bisection steps per solve instead of 53 with the window e^(+-1) around
-pi/(2 delta) of earlier versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma

from . import groundstate, sturm_liouville
from .errors import AccuracyError, BracketError
# a0_scaled is called nowhere here; the benchmark's trace (perfbench/layers.py)
# still wraps critical_field.a0_scaled
from .potentials import (LOG_OFFSET, PotentialSpec, a0_scaled,  # noqa: F401
                         log_mu_of_y, mu_bound_constant)
from .units import DEFAULT_CONSTANTS, PhysicalConstants, log10_tesla_of_log_B

__all__ = [
    "CriticalFieldResult",
    "SandwichBracket",
    "m_delta",
    "critical_field_direct",
    "critical_field_schrodinger",
    "critical_field_asymptotic",
    "E1_of_kappa",
    "bracket_E1",
    "hhh_bounds",
    "sandwich",
    "nu_bar",
    "d_of_delta",
]

#: smallest coupling supported by the log-space route (kappa ~ e^-157 there;
#: B_L itself would overflow double precision near delta ~ 0.004)
DELTA_MIN = 0.01

#: largest coupling for the Schrodinger-form route (sigma = -log kappa must
#: stay positive and well separated from 0)
DELTA_MAX_SCHRODINGER = 0.7

#: smallest coupling for the direct route.  The rows grow like 1/delta: at
#: 0.05 a call makes 8 eigen-solves of at most 5 979 rows in about 20 ms (one
#: thread).  The float floor of m relative to |m| ~ e^(-pi/2delta) grows
#: faster: ~5e-10 at 0.05, and at 0.03 it exceeds DIRECT_DOMAIN_TOL, so the
#: domain test cannot be met there (TruncationError)
DELTA_MIN_DIRECT = 0.05

#: initial domain of the direct route, in widths e^(pi/2delta) of the eigenfunction
DIRECT_PAD = 24.0

#: the direct route doubles its domain until m moves by at most this much,
#: relative, and raises TruncationError after MAX_DIRECT_DOUBLINGS doublings
DIRECT_DOMAIN_TOL = 1e-9
MAX_DIRECT_DOUBLINGS = 4

#: exponential-wall cap for -g'' + kappa mu(y) g in E1_of_kappa; heights
#: beyond this act as infinite for eigenvalues <= O(1)
WALL_CAP = 1.0e4

#: the bisection window of both pencils runs in log kappa from WINDOW_FLOOR
#: below the closed form of :func:`critical_field_asymptotic` to
#: WINDOW_GRID step^2 + 0.6 kappa + WINDOW_FLOOR above it: a grid's log kappa
#: lies above the continuum's by 0.0145-0.045 step^2 on the Schrodinger pencil
#: (delta in [0.01, 0.7]) and 0.10-0.14 step^2 on the direct one (delta in
#: [0.05, 0.99]), and the continuum's 0 to 0.6 kappa above the closed form
WINDOW_GRID = 0.15
WINDOW_FLOOR = 1e-3

#: float floor of the pencil in E_1, in eps / h^2; the error against 40-digit
#: Sturm bisection measured <= 0.73 (delta in [0.01, 0.7], h = 0.02 and 0.01)
PENCIL_FLOOR = 4.0

#: step rule of the Schrodinger pencil, h(delta) = min(STEP_MAX, max(STEP_MIN,
#: STEP_SCALE / delta)).  The float floor of log B_L falls like
#: PENCIL_FLOOR eps / (h^2 slope), slope = dE_1/dlog kappa ~ 4 delta^3/pi, and
#: the Richardson remainder grows like h^4: about 1.1e-3 h^4 at delta = 0.7 and
#: 1.2e-4 h^4 at 0.31, and about 1.3e-5 h^4 at every delta below 0.15.  Above 0.15
#: the two balance at h ~ 0.0106 delta^-0.92 ~ STEP_SCALE / delta, which holds
#: the rows per pencil near (pi + 60 delta) / STEP_SCALE.  STEP_MIN, reached at
#: delta = 0.5, is the fixed step of earlier versions.  STEP_MAX, reached below
#: delta = 0.05, is where at DELTA_MIN the remainder meets the float error
#: actually measured (about 0.2 of the floor); it holds the remainder to 2.1e-8
STEP_SCALE = 0.01
STEP_MIN = 0.02
STEP_MAX = 0.2

#: Newton steps allowed to the step-well root of :func:`bracket_E1`, which
#: takes 4-5 on delta in [0.01, 0.7]; AccuracyError past them
STEP_ROOT_MAX_STEPS = 50


@dataclass(frozen=True)
class CriticalFieldResult:
    """log B_L with the method tag and the internal quantities of the solve."""

    delta: float
    log_BL: float
    method: str  # "direct_scaling" | "schrodinger_form" | "asymptotic"
    m_delta: float
    log_kappa: float
    e1_bracket: tuple[float, float] | None
    #: float floor of log_BL (Schrodinger form only), without discretization
    log_BL_error: float | None = None


@dataclass(frozen=True)
class SandwichBracket:
    """Two-sided estimate of the full critical field from shifted couplings."""

    nu: float
    delta_minus: float
    delta_plus: float
    lower_logB: float
    upper_logB: float
    analytic_lower: float
    analytic_upper_gaussian: float | None
    lower_tesla: float
    upper_tesla: float
    lower_tesla_log10: float
    upper_tesla_log10: float


def d_of_delta(delta: float) -> float:
    """(1 - 2 delta) sqrt(2) - 2 delta; positive iff delta < 1 - sqrt(2)/2."""
    return (1.0 - 2.0 * delta) * math.sqrt(2.0) - 2.0 * delta


def nu_bar() -> float:
    """Root of 2 (nu + sqrt(nu)) = 2 - sqrt(2), about 0.0561; a quadratic in sqrt(nu)."""
    return ((math.sqrt(5.0 - 2.0 * math.sqrt(2.0)) - 1.0) / 2.0) ** 2


def _log_kappa_asymptotic(delta: float) -> float:
    """log kappa = g - pi/(2 delta) + arg Gamma(1 + 2i delta)/delta, exact up
    to O(kappa); g = LOG_OFFSET (see :func:`critical_field_asymptotic`)."""
    return LOG_OFFSET + (float(loggamma(1.0 + 2.0j * delta).imag) - 0.5 * math.pi) / delta


def _window(delta: float, scale: float = 1.0, step: float = 0.0) -> tuple[float, float]:
    """Bisection window (lo, hi) for the lowest pencil eigenvalue -scale kappa
    on a grid of the given step (0: the continuum): log kappa from WINDOW_FLOOR
    below its closed form to WINDOW_GRID step^2 + 0.6 kappa + WINDOW_FLOOR
    above it."""
    log_kappa = _log_kappa_asymptotic(delta)
    above = WINDOW_GRID * step * step + 0.6 * math.exp(log_kappa) + WINDOW_FLOOR
    return (-scale * math.exp(log_kappa + above),
            -scale * math.exp(log_kappa - WINDOW_FLOOR))


def _step(delta: float) -> float:
    """Default step of :func:`critical_field_schrodinger`,
    min(STEP_MAX, max(STEP_MIN, STEP_SCALE / delta))."""
    return min(STEP_MAX, max(STEP_MIN, STEP_SCALE / delta))


# ---------------------------------------------------------------------------
# direct z-space route
# ---------------------------------------------------------------------------

def m_delta(delta: float, *, B: float = 1.0, h: float = 0.025) -> float:
    """m(delta, B) < 0, the lowest eigenvalue of -(f'/(delta a_0))' - delta a_0 f.

    For B = 1 this is the scale-reduced quantity entering sqrt(B_L); general
    B exists to check the exact relation m(delta, B) = sqrt(B) m(delta, 1)
    directly against the B-dependent quadratic form.

    The eigenfunction spreads over |z| ~ e^(pi/2delta).  On the map
    sqrt(B) z = sinh(t), uniform in t with step h, the spacing is h/sqrt(B)
    near z = 0 and the step in log z is h far out, so [-L, L] with
    L = DIRECT_PAD e^(pi/2delta)/sqrt(B) takes about
    2 (pi/(2 delta) + log(2 DIRECT_PAD))/h rows (729 at delta = 0.3, 2 823 at
    0.05).  The pencil is the ground level's T(-1) - 1 at nu = delta
    (groundstate._Grid.threshold), bisected to relative accuracy (|m| ~ 3e-13
    at delta = 0.05) inside the window of m = -sqrt(B) kappa / delta.  The
    mapped-grid driver (sturm_liouville) Richardson-extrapolates it over
    n -> 2n + 1 (odd n keeps the kink of a_0 at z = 0 on a node) and doubles
    the domain in z until m moves by at most DIRECT_DOMAIN_TOL relative;
    TruncationError is raised after MAX_DIRECT_DOUBLINGS doublings.
    """
    spec = PotentialSpec(delta, B)
    window = _window(delta, math.sqrt(B) / delta, h)
    m, _ = sturm_liouville._mapped_richardson(
        lambda t: groundstate._samples(spec, t),
        lambda T, n, samples: groundstate._Grid(spec, T, n, samples=samples).threshold(window),
        math.asinh(DIRECT_PAD * math.exp(math.pi / (2.0 * delta))), h,
        lambda prev, m: abs(m - prev) <= DIRECT_DOMAIN_TOL * abs(m), MAX_DIRECT_DOUBLINGS)
    return m


def critical_field_direct(delta: float) -> CriticalFieldResult:
    """log B_L by the scale identity, sqrt(B_L) = 2/|m(delta)|, with m from the
    sinh-mapped z-space solve of :func:`m_delta` at its default step.

    An oracle independent of the Schrodinger form (no y map, no log mu): the
    two agree to about 2e-8 in log B_L over [DELTA_MIN_DIRECT, 0.7].  No error
    estimate is reported (``log_BL_error`` is None).
    """
    if not (DELTA_MIN_DIRECT <= delta < 1.0):
        raise ValueError(
            f"direct method supports {DELTA_MIN_DIRECT} <= delta < 1, got {delta}"
        )
    m = m_delta(delta)
    if m >= 0.0:
        raise BracketError(f"m(delta) = {m} is not negative; no critical field")
    log_BL = 2.0 * (math.log(2.0) - math.log(-m))
    return CriticalFieldResult(
        delta=delta, log_BL=log_BL, method="direct_scaling", m_delta=m,
        log_kappa=math.log(delta * (-m)), e1_bracket=None,
    )


# ---------------------------------------------------------------------------
# Schrodinger-form route
# ---------------------------------------------------------------------------

def _log_mu_grids(Y: float, h: float) -> tuple[tuple[float, np.ndarray], ...]:
    """(step, log mu at the nodes) on the n- and (2n + 1)-point grids of [-Y, Y],
    from one pass over the finer grid: its odd nodes are the coarser grid's,
    at twice its step (exact).  The grid pair of :func:`critical_field_schrodinger`."""
    step, nodes, _ = sturm_liouville.grid_nodes(Y, 2 * sturm_liouville.odd_points(Y, h) + 1)
    log_mu = log_mu_of_y(nodes)
    return (2.0 * step, log_mu[1::2]), (step, log_mu)


def E1_of_kappa(log_kappa: float, *, Y: float | None = None,
                h: float = 0.02) -> sturm_liouville.EigenResult:
    """Ground level of -g'' + kappa mu(y) g on [-Y, Y] with Dirichlet ends.

    The potential is assembled as exp(log kappa + log mu(y)) so that
    kappa ~ e^-157 regimes never underflow (kappa = 0 is log kappa = -inf),
    and capped at WALL_CAP where the exponential wall has long since become
    impenetrable for levels of O(1).  Y (default |log kappa| + 30, past the
    turning point) is fixed, not doubled.  The solve is the uniform-grid
    oracle :func:`sturm_liouville.lowest_eigenvalue`, Richardson-extrapolated
    over the grid pair of spacing h and h/2.  Value only: the oracle for
    delta^2 = E_1(kappa), which the pencil of :func:`critical_field_schrodinger`
    solves without calling it.
    """
    if Y is None:
        if not math.isfinite(log_kappa):
            raise ValueError("Y must be given explicitly when kappa = 0")
        Y = abs(log_kappa) + 30.0
    if not (Y > 0.0 and math.isfinite(Y)):
        raise ValueError(f"Y must be positive and finite, got {Y}")
    log_cap = math.log(WALL_CAP)
    return sturm_liouville.lowest_eigenvalue(sturm_liouville.SturmLiouvilleProblem(
        np.ones_like, lambda y: np.exp(np.minimum(log_kappa + log_mu_of_y(y), log_cap)),
        Y, sturm_liouville.odd_points(Y, h)), stabilize_domain=False)


def bracket_E1(delta: float, log_kappa: float) -> tuple[float, float]:
    """Analytic two-sided estimate of E_1(kappa).

    Lower: ground level of the step potential that vanishes on
    (-sigma, sigma), sigma = -log kappa, and equals the wall kappa mu(sigma)
    outside; it sits below E_1 because the step is below kappa mu pointwise.
    Its condition sqrt(E) sigma = arctan(sqrt((wall - E)/E)) reads, in the
    angle sqrt(E) = sqrt(wall) sin phi,

        h(phi) = a sin phi + phi - pi/2 = 0,   a = sigma sqrt(wall) > 0,

    and h is increasing and concave on [0, pi/2] with h(0) < 0 < h(pi/2), so
    Newton's method from phi = 0 climbs to the root without overshooting
    (4-5 steps); E = wall sin^2 phi.  Upper: Rayleigh quotient of the
    half-cosine of half-width s, pi^2/(4 s^2) + 2 kappa c (e^s - 1) with
    mu <= c e^|y|, minimized over a grid of s (clamped to s >= 1 where that
    closed form is valid); kappa e^s is taken as e^(log kappa + s), so that a
    kappa that underflows still gives a finite bound.

    Both sides bound the continuum E_1 of the uncapped potential, the one the
    pencil discretizes; its O(h^2) grid error is not part of the bracket.
    """
    if not (math.isfinite(log_kappa) and log_kappa < 0.0):
        raise ValueError(f"bracket requires 0 < kappa < 1, got log kappa = {log_kappa}")
    sigma = -log_kappa
    wall = math.exp(log_kappa + float(log_mu_of_y(np.array([sigma]))[0]))
    a = sigma * math.sqrt(wall)
    phi, tol = 0.0, 4.0 * np.finfo(float).eps
    for _ in range(STEP_ROOT_MAX_STEPS):
        step = -(a * math.sin(phi) + phi - 0.5 * math.pi) / (a * math.cos(phi) + 1.0)
        phi += step
        if step <= tol * phi:
            break
    else:
        raise AccuracyError(f"step-well root did not converge in {STEP_ROOT_MAX_STEPS} "
                            f"Newton steps at log kappa = {log_kappa}")
    lower = wall * math.sin(phi) ** 2

    c = mu_bound_constant()
    s_lo = max(1.0, sigma - 3.0 * math.log(max(sigma, 1.001)) - 5.0)
    s_grid = np.linspace(s_lo, max(sigma + 5.0, s_lo + 1.0), 200)
    upper = float(np.min(np.pi**2 / (4.0 * s_grid**2)
                         + 2.0 * c * (np.exp(log_kappa + s_grid) - math.exp(log_kappa))))
    if not lower <= upper:
        raise BracketError(
            f"analytic E1 bracket inverted at delta={delta}: ({lower}, {upper})"
        )
    return lower, upper


def _pencil_log_kappa(delta: float, step: float, log_mu: np.ndarray,
                      slope: float | None = None) -> tuple[float, float, float]:
    """(log kappa = log(-sigma_1), slope dE_1/dlog kappa, float floor of log kappa)
    on one grid; the slope kappa / sum(g^2 / mu) comes from the unit eigenvector
    g of S A S unless it is given, and the floor is PENCIL_FLOOR eps / step^2
    over it.  sigma_1 is bisected inside the window of -kappa for this step."""
    s = np.exp(-0.5 * log_mu)
    diag, offdiag = sturm_liouville.scaled_pencil(np.ones(s.size + 1),
                                                  np.full(s.size, -delta * delta), s, step)
    sigma, g, _ = sturm_liouville.eigenvalue(diag, offdiag, window=_window(delta, 1.0, step),
                                             vector=slope is None)
    if slope is None:
        slope = -sigma / float(np.sum((g * s) ** 2))
    return math.log(-sigma), slope, PENCIL_FLOOR * np.finfo(float).eps / (step**2 * slope)


def critical_field_schrodinger(delta: float, *, h: float | None = None) -> CriticalFieldResult:
    """log B_L from the lowest eigenvalue -kappa of the pencil; in logs throughout.

    One eigenpair solve on step h and one value solve on h/2, on [-Y, Y] with
    Y = pi/(2 delta) + 30 > pi/(2 delta), so that A has a negative eigenvalue
    and sigma_1 < 0; log kappa is Richardson-extrapolated over the pair.  The
    default h is the step rule min(0.2, max(0.02, 0.01/delta)) (STEP_MAX,
    STEP_MIN, STEP_SCALE), which balances the float floor against the
    Richardson remainder.  Between delta = 0.05 and 0.5 it keeps the coarse
    grid near (pi + 60 delta)/0.01 rows; at delta = 0.01 it has 1 871, where
    the fixed h = 0.02 took 18 707.
    Against the closed form of :func:`critical_field_asymptotic`, exact there,
    the default is within 2.9e-8 on 61 points of [0.01, 0.07], and within
    8.2e-9 of h = 0.01 on 32 points of [0.08, 0.7].

    ``log_BL_error`` is the float floor only, not the discretization error:
    the per-grid floors (coarse slope) combined as (4 fine + coarse) / 3 and
    doubled for log B_L, about 2e-7 at delta = 0.01 (2e-5 at h = 0.02) and
    < 1e-9 at >= 0.3.  Near delta = 0.05 the Richardson remainder of the
    coarse default step exceeds it: 1.6e-9 reported against 2.1e-8 measured.
    """
    if not (DELTA_MIN <= delta <= DELTA_MAX_SCHRODINGER):
        raise ValueError(
            f"schrodinger method supports {DELTA_MIN} <= delta <= "
            f"{DELTA_MAX_SCHRODINGER}, got {delta}"
        )
    h = _step(delta) if h is None else h
    (h0, log_mu0), (h1, log_mu1) = _log_mu_grids(math.pi / (2.0 * delta) + 30.0, h)
    coarse, slope, floor_coarse = _pencil_log_kappa(delta, h0, log_mu0)
    fine, _, floor_fine = _pencil_log_kappa(delta, h1, log_mu1, slope)
    log_kappa, _ = sturm_liouville.richardson_step(coarse, fine)
    log_BL = 2.0 * (math.log(2.0 * delta) - log_kappa)
    return CriticalFieldResult(
        delta=delta, log_BL=log_BL, method="schrodinger_form",
        m_delta=-math.exp(log_kappa) / delta, log_kappa=log_kappa,
        e1_bracket=bracket_E1(delta, log_kappa),
        log_BL_error=2.0 * (4.0 * floor_fine + floor_coarse) / 3.0,
    )


def critical_field_asymptotic(delta: float) -> CriticalFieldResult:
    """Small-delta closed form, exact up to O(kappa):

        log B_L = pi/delta + log(4 delta^2) - (gamma_E + ln 2)
                  - (2/delta) arg Gamma(1 + 2i delta) + R,   R = O(kappa).

    Beyond the core mu(y) = e^(|y| - g) (1 + O(e^(-2|y|))), g = LOG_OFFSET.
    For that pure well the even solution of -u'' + kappa mu u = delta^2 u is
    K_(2i delta)(2 sqrt(kappa) e^((|y| - g)/2)), and the small-argument form
    of K_(i nu) (DLMF 10.45) turns u'(0) = 0 into
    delta (log kappa - g) - arg Gamma(1 + 2i delta) = -pi/2 (arg Gamma from
    ``scipy.special.loggamma``, DLMF 5.4); the core shifts this by O(kappa).
    Measured, R/kappa lies in [-1.1, -0.04] for delta in [0.1, 0.95]; at
    delta <= 0.07 (kappa < 1.1e-10) the form is more accurate than either route.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    log_kappa = _log_kappa_asymptotic(delta)
    return CriticalFieldResult(
        delta=delta, log_BL=2.0 * (math.log(2.0 * delta) - log_kappa),
        method="asymptotic", m_delta=-math.exp(log_kappa) / delta,
        log_kappa=log_kappa, e1_bracket=None,
    )


# ---------------------------------------------------------------------------
# analytic bounds and the sandwich
# ---------------------------------------------------------------------------

def hhh_bounds(nu: float) -> tuple[float, float | None]:
    """Rigorous bounds for the full critical field: 4/(5 nu^2) from below and,
    once nu^2 > 2/3, 18 pi nu^2/(3 nu^2 - 2)^2 from above (Gaussian trial).

    The complementary e^(C/nu^2) upper branch has no explicit constant and is
    therefore not returned numerically.
    """
    if not (0.0 < nu < 1.0):
        raise ValueError(f"nu must lie in (0, 1), got {nu}")
    lower = 4.0 / (5.0 * nu * nu)
    upper = None
    if 3.0 * nu * nu - 2.0 > 0.0:
        upper = 18.0 * math.pi * nu * nu / (3.0 * nu * nu - 2.0) ** 2
    return lower, upper


def sandwich(nu: float, *, h: float | None = None,
             constants: PhysicalConstants = DEFAULT_CONSTANTS) -> SandwichBracket:
    """B_L(nu + nu^1.5) <= B(nu) <= B_L(nu - nu^1.5), valid for nu < nu_bar.

    Both sides are :func:`critical_field_schrodinger` at step h, by default
    each at its own step rule: 0.14 to 0.2 for nu < nu_bar, so that the two
    pencil pairs of sandwich(0.045) have 4 152 rows, against 39 930 at 0.02.
    """
    nb = nu_bar()
    if not (0.0 < nu < nb):
        raise ValueError(f"sandwich is valid only for 0 < nu < nu_bar ~ {nb:.4f}, got {nu}")
    delta_minus = nu - nu**1.5
    delta_plus = nu + nu**1.5
    if delta_minus < DELTA_MIN:
        raise ValueError(
            f"nu = {nu} shifts below the supported coupling floor "
            f"(delta_minus = {delta_minus:.4f} < {DELTA_MIN})"
        )
    lower = critical_field_schrodinger(delta_plus, h=h)
    upper = critical_field_schrodinger(delta_minus, h=h)
    analytic_lower, analytic_upper = hhh_bounds(nu)

    def safe_exp(x: float) -> float:
        try:
            return math.exp(x)
        except OverflowError:
            return math.inf

    unit = math.log(constants.B_unit_tesla)
    return SandwichBracket(
        nu=nu, delta_minus=delta_minus, delta_plus=delta_plus,
        lower_logB=lower.log_BL, upper_logB=upper.log_BL,
        analytic_lower=analytic_lower, analytic_upper_gaussian=analytic_upper,
        lower_tesla=safe_exp(lower.log_BL + unit),
        upper_tesla=safe_exp(upper.log_BL + unit),
        lower_tesla_log10=log10_tesla_of_log_B(lower.log_BL, constants),
        upper_tesla_log10=log10_tesla_of_log_B(upper.log_BL, constants),
    )
