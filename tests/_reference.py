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
  (``UniformGrid``), Richardson-extrapolated and domain-doubled, where
  ``ground_state_lambda`` takes its level from the staggered Dirac matrix on
  the sinh-mapped t-grid.
- ``evaluate_GB_quad`` sums the zero-mode trial functional by adaptive
  ``quad`` of point-wise integrands, with the kinetic weight from ``w_ell``,
  where ``trial_bounds.evaluate_GB`` uses fixed Gauss-Legendre panels and one
  array evaluation per rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import erfcx

from landaucrit import groundstate, sturm_liouville
from landaucrit import potentials as pot
from landaucrit.errors import TruncationError
from landaucrit.potentials import PotentialSpec, VariableMap
from landaucrit.sturm_liouville import EigenResult, SturmLiouvilleProblem
from landaucrit.trial_bounds import TrialEvaluation, TrialState

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

class UniformGrid:
    """Potential samples on n interior nodes of z in [-L, L], uniform."""

    def __init__(self, spec: PotentialSpec, L: float, n: int):
        self.spec = spec
        self.h, nodes, mids = sturm_liouville.grid_nodes(L, n)
        self.a_mids = pot.a_ell_grid(spec, mids)
        self.q_nodes = 1.0 - spec.nu * pot.a_ell_grid(spec, nodes)

    def T(self, lam: float) -> float:
        """T(lambda), the lowest eigenvalue of A(lambda) = -(p f')' + q f."""
        p_mid = 1.0 / (1.0 + lam + self.spec.nu * self.a_mids)
        return sturm_liouville.lowest_of_tridiagonal(
            *sturm_liouville.tridiagonal(p_mid, self.q_nodes, self.h))


def uniform_grid(spec: PotentialSpec, L: float | None = None) -> tuple[float, int]:
    """(L, n) of the uniform grid on [-L, L], by default the ground state's
    first domain, at spacing 0.05/sqrt(max(1, B)): the rule the library used
    before the sinh map, without its point cap, so meant for B up to ~1e2."""
    L = groundstate._default_domain(spec) if L is None else L
    return L, sturm_liouville.odd_points(L, 0.05 / math.sqrt(max(1.0, spec.B)))


def T_of_lambda(spec: PotentialSpec, lam: float, *, L: float | None = None,
                n: int | None = None, richardson: bool = True,
                stabilize_domain: bool = True) -> float:
    """Lowest eigenvalue T(lambda) of the linearized operator on
    ``UniformGrid`` (by default ``uniform_grid(spec)``): Richardson over
    n -> 2n + 1, then the domain doubled at fixed h until T moves by less
    than 1e-9.

    At lambda = -1 the kinetic denominator reduces to nu a_ell, which is
    positive on any truncated domain, so the solve needs no regularization.
    """
    if not math.isfinite(lam) or lam < -1.0:
        raise ValueError(f"lambda must be finite and >= -1, got {lam}")
    if n is None:
        L, n = uniform_grid(spec, L)
    elif L is None:
        L = groundstate._default_domain(spec)

    def on_grid(L, n):
        value = UniformGrid(spec, L, n).T(lam)
        if not richardson:
            return value
        return sturm_liouville.richardson_step(value, UniformGrid(spec, L, 2 * n + 1).T(lam))[0]

    prev = on_grid(L, n)
    if not stabilize_domain:
        return prev
    max_doublings = 8
    for _ in range(max_doublings):
        # doubling both L and the cell count (n -> 2n+1) keeps h fixed
        L, n = 2.0 * L, 2 * n + 1
        if n > sturm_liouville.MAX_GRID_POINTS:
            raise TruncationError(
                f"domain doubling exceeded the grid cap at n={n} before stabilizing",
                last_values=(prev, math.nan),
            )
        cur = on_grid(L, n)
        if abs(cur - prev) < 1e-9:
            return cur
        prev = cur
    raise TruncationError(
        f"T did not stabilize within {max_doublings} domain doublings",
        last_values=(prev, cur),
    )


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
