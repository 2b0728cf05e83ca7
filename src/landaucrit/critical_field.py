"""Critical field B_L of the lowest-Landau theory, by two routes, with brackets.

The scale invariance lambda(delta, B) = 1 + sqrt(B) (lambda(delta, 1) - 1)
reduces the critical condition lambda = -1 to the single number
m(delta) = lambda(delta, 1) - 1 < 0:

    sqrt(B_L) = 2 / |m(delta)| = 2 delta / kappa(delta),
    kappa(delta) = delta (1 - lambda(delta, 1)).

Route one ("direct_scaling") computes m(delta) as the lowest eigenvalue of
-(f'/( delta a_0))' - delta a_0 f in the longitudinal coordinate; usable down
to delta ~ 0.2 where the eigenfunction width ~ e^(pi/2delta) still fits on a
grid.  Route two ("schrodinger_form") changes variables to y with weight
mu(y) and instead solves delta^2 = E_1(kappa) for kappa, where E_1 is the
ground level of -d^2/dy^2 + kappa mu(y); carried entirely in log kappa it
reaches delta = 0.01 (kappa ~ e^-157).  The root is one safeguarded Newton
solve on one fixed grid pair on [-Y, Y] (n and 2n + 1 points, no
Y-doubling); log mu(y) is sampled on it once, so each E_1 on the way only
exponentiates log kappa + log mu and does one Richardson step over two
eigenpair solves, whose eigenvectors give the exact slope dE_1/dlog kappa
(Hellmann-Feynman).  Analytic two-sided estimates for E_1 (step-potential
lower side, cosine-trial upper side) are reported with every solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from . import sturm_liouville
from .errors import BracketError, TruncationError
from .potentials import a0_scaled, log_mu_of_y, mu_bound_constant
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

#: practical lower edge of the direct z-space route
DELTA_MIN_DIRECT = 0.15

#: domain of the direct route, in widths e^(pi/2delta) of the eigenfunction
DIRECT_PAD = 24.0

#: exponential-wall cap for -g'' + kappa mu(y) g; heights beyond this act as
#: infinite for eigenvalues <= O(1) while keeping the matrix well conditioned
WALL_CAP = 1.0e4


@dataclass(frozen=True)
class CriticalFieldResult:
    """log B_L with the method tag and the internal quantities of the solve."""

    delta: float
    log_BL: float
    method: str  # "direct_scaling" | "schrodinger_form" | "asymptotic"
    m_delta: float
    log_kappa: float
    e1_bracket: tuple[float, float] | None
    #: solver floor of log_BL (Schrodinger form only): 2 NEWTON_FTOL / (dE_1/dlog kappa)
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


# ---------------------------------------------------------------------------
# direct z-space route
# ---------------------------------------------------------------------------

def m_delta(delta: float, *, B: float = 1.0, h: float = 0.05) -> float:
    """m = lambda(delta, B) - 1 < 0 from the longitudinal eigenproblem.

    For B = 1 this is the scale-reduced quantity entering sqrt(B_L); general
    B exists to check the exact relation m(delta, B) = sqrt(B) m(delta, 1)
    directly against the B-dependent quadratic form.

    The eigenfunction width grows like e^(pi/2delta), so small delta needs
    grids beyond the cap; the raised TruncationError points to
    :func:`critical_field_schrodinger`, which has no such limit.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    rootB = math.sqrt(B)
    L = DIRECT_PAD * math.exp(math.pi / (2.0 * delta)) / rootB
    n = sturm_liouville.odd_points(L, h / rootB)
    if n > sturm_liouville.MAX_GRID_POINTS // 2:
        raise TruncationError(
            f"direct z-space solve needs ~{n:.2e} grid points at delta = {delta}; "
            "use critical_field_schrodinger instead",
            last_values=None,
        )
    problem = sturm_liouville.SturmLiouvilleProblem(
        p=lambda z: 1.0 / (delta * rootB * a0_scaled(rootB * z)),
        q=lambda z: -delta * rootB * a0_scaled(rootB * z),
        L=L,
        n=n,
    )
    result = sturm_liouville.lowest_eigenvalue(problem, richardson=True,
                                               stabilize_domain=True,
                                               domain_tol=1e-9, max_doublings=2)
    return result.value


def critical_field_direct(delta: float) -> CriticalFieldResult:
    """log B_L by the scale identity, sqrt(B_L) = 2/|m(delta)|."""
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

@lru_cache(maxsize=4)
def _log_mu_grids(Y: float, h: float) -> tuple[tuple[float, np.ndarray], ...]:
    """(step, log mu at the nodes) on the n- and (2n + 1)-point grids of [-Y, Y];
    sampled once per (Y, h) and shared, hence read-only."""
    n = sturm_liouville.odd_points(Y, h)
    grids = []
    for m in (n, 2 * n + 1):
        step, nodes, _ = sturm_liouville.grid_nodes(Y, m)
        log_mu = log_mu_of_y(nodes)
        log_mu.setflags(write=False)
        grids.append((step, log_mu))
    return tuple(grids)


def E1_of_kappa(log_kappa: float, *, Y: float | None = None,
                h: float = 0.02) -> sturm_liouville.EigenResult:
    """Ground level of -g'' + kappa mu(y) g on [-Y, Y] with Dirichlet ends, and
    its slope dE_1/dlog kappa.

    The potential is assembled as exp(log kappa + log mu(y)) so that
    kappa ~ e^-157 regimes never underflow (kappa = 0 is log kappa = -inf),
    and capped at WALL_CAP where the exponential wall has long since become
    impenetrable for levels of O(1).  Y (default |log kappa| + 30, past the
    turning point) is fixed, not doubled; the value is Richardson-extrapolated
    over the grid pair of spacing h and h/2, whose log mu samples are cached.
    ``slope`` is the exact derivative of that value: the same Richardson step
    over sum(g^2 kappa mu) on the uncapped nodes, g the unit eigenvector.
    """
    if Y is None:
        if not math.isfinite(log_kappa):
            raise ValueError("Y must be given explicitly when kappa = 0")
        Y = abs(log_kappa) + 30.0
    if not (Y > 0.0 and math.isfinite(Y)):
        raise ValueError(f"Y must be positive and finite, got {Y}")
    log_cap = math.log(WALL_CAP)
    levels, slopes = [], []
    for step, log_mu in _log_mu_grids(Y, h):
        log_q = log_kappa + log_mu
        q = np.exp(np.minimum(log_q, log_cap))
        level, g = sturm_liouville.lowest_pair_of_tridiagonal(
            *sturm_liouville.tridiagonal(np.ones(q.size + 1), q, step))
        levels.append(level)
        slopes.append(float(np.sum(g**2 * np.where(log_q < log_cap, q, 0.0))))
    value, error = sturm_liouville.richardson_step(*levels)
    return sturm_liouville.EigenResult(value=value, L=Y, n=q.size, extrapolated=True,
                                       error_estimate=error,
                                       slope=sturm_liouville.richardson_step(*slopes)[0])


def bracket_E1(delta: float, log_kappa: float) -> tuple[float, float]:
    """Analytic two-sided estimate of E_1(kappa).

    Lower: ground level of the step potential that vanishes on
    (-sigma, sigma), sigma = -log kappa, and equals kappa mu(sigma) outside;
    it solves sqrt(E) sigma = arctan(sqrt((kappa mu(sigma) - E)/E)) and sits
    below E_1 because the step is below kappa mu pointwise.  Upper: Rayleigh
    quotient of the half-cosine of half-width s, pi^2/(4 s^2) + 2 kappa c
    (e^s - 1) with mu <= c e^|y|, minimized over a grid of s (clamped to
    s >= 1 where that closed form is valid).

    Not a proof: the bracket refers to the uncapped potential, while
    :func:`E1_of_kappa` caps kappa mu at WALL_CAP, an effect on E_1 that is
    not quantified here.
    """
    if not (log_kappa < 0.0):
        raise ValueError(f"bracket requires kappa < 1, got log kappa = {log_kappa}")
    sigma = -log_kappa
    wall = math.exp(log_kappa + float(log_mu_of_y(np.array([sigma]))[0]))

    def step_root(E):
        return math.sqrt(E) * sigma - math.atan(math.sqrt((wall - E) / E))

    lower = brentq(step_root, 1e-300, wall * (1.0 - 1e-14), xtol=1e-300, rtol=8.9e-16)

    c = mu_bound_constant()
    kappa = math.exp(log_kappa)
    s_lo = max(1.0, sigma - 3.0 * math.log(max(sigma, 1.001)) - 5.0)
    s_grid = np.linspace(s_lo, max(sigma + 5.0, s_lo + 1.0), 200)
    upper = float(np.min(np.pi**2 / (4.0 * s_grid**2)
                         + 2.0 * kappa * c * (np.exp(s_grid) - 1.0)))
    if not lower <= upper:
        raise BracketError(
            f"analytic E1 bracket inverted at delta={delta}: ({lower}, {upper})"
        )
    return float(lower), upper


def _solve_log_kappa(delta: float, h: float) -> tuple[float, float]:
    """Root of E_1(kappa) = delta^2 in log kappa on grid step h, and the slope
    dE_1/dlog kappa there.

    Every E_1 is Richardson-extrapolated on one fixed grid pair on [-Y, Y],
    Y = |lo| + 30, with log mu sampled once for the whole root and no
    Y-doubling.  Newton starts at the small-delta guess -pi/(2 delta) inside
    the bracket [lo, hi] around it, with the Hellmann-Feynman slope of each
    E_1; it stops at |E_1 - delta^2| <= NEWTON_FTOL or a step <= 1e-12 in
    log kappa, and raises BracketError if the root lies outside the bracket
    or ConvergenceError if it runs out of steps.
    """
    target = delta * delta
    guess = -math.pi / (2.0 * delta)
    half = max(8.0, 0.6 * abs(guess))
    lo, hi = guess - half, min(guess + half, -1e-3)
    Y = abs(lo) + 30.0

    def fs(lk: float) -> tuple[float, float]:
        res = E1_of_kappa(lk, Y=Y, h=h)
        return res.value - target, res.slope

    root, _, slope = sturm_liouville.newton_root(fs, guess, lo, hi, xtol=1e-12)
    return root, slope


def critical_field_schrodinger(delta: float, *, h: float = 0.02) -> CriticalFieldResult:
    """log B_L from delta^2 = E_1(kappa); everything carried in logs.

    One Newton root in log kappa on one fixed grid pair of step h and h/2,
    with log mu sampled once and every E_1 value and slope
    Richardson-extrapolated; then sqrt(B_L) = 2 delta / kappa.

    ``log_BL_error`` is the solver floor of that root: E_1 is resolved to
    NEWTON_FTOL, which fixes log kappa to NEWTON_FTOL / (dE_1/dlog kappa) and
    log B_L to twice that (about 6e-6 at delta = 0.01, 3e-11 at delta = 0.7).
    It leaves out the discretization error of the grid pair.
    """
    if not (DELTA_MIN <= delta <= DELTA_MAX_SCHRODINGER):
        raise ValueError(
            f"schrodinger method supports {DELTA_MIN} <= delta <= "
            f"{DELTA_MAX_SCHRODINGER}, got {delta}"
        )
    log_kappa, slope = _solve_log_kappa(delta, h)
    log_BL = 2.0 * (math.log(2.0 * delta) - log_kappa)
    return CriticalFieldResult(
        delta=delta, log_BL=log_BL, method="schrodinger_form",
        m_delta=-math.exp(log_kappa) / delta, log_kappa=log_kappa,
        e1_bracket=bracket_E1(delta, log_kappa),
        log_BL_error=2.0 * sturm_liouville.NEWTON_FTOL / slope,
    )


def critical_field_asymptotic(delta: float) -> CriticalFieldResult:
    """Leading small-delta form log B_L = log(4 delta^2) + pi/delta."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    log_kappa = -math.pi / (2.0 * delta)
    return CriticalFieldResult(
        delta=delta, log_BL=math.log(4.0 * delta * delta) + math.pi / delta,
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


def sandwich(nu: float, *, h: float = 0.02,
             constants: PhysicalConstants = DEFAULT_CONSTANTS) -> SandwichBracket:
    """B_L(nu + nu^1.5) <= B(nu) <= B_L(nu - nu^1.5), valid for nu < nu_bar."""
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
