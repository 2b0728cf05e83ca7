"""Landau-averaged Coulomb potentials and the logarithmic change of variables.

The transverse zero mode of index ``ell`` in a field ``B`` sees the effective
one-dimensional attraction

    a_ell(z; B) = (B^(ell+1) / (2^ell ell!)) ∫_0^∞ s^(2ell+1) e^(-B s^2/2) / sqrt(s^2+z^2) ds,

which obeys the exact scaling a_ell(z; B) = sqrt(B) * a_ell(sqrt(B) z; 1), so
everything is computed in the scaled variable zeta = sqrt(B) z.  For ell = 0
the closed form sqrt(pi/2) erfcx(|zeta|/sqrt(2)) holds everywhere; for
ell >= 1, |zeta| <= SWITCH_RADIUS uses a degree-80 Chebyshev fit of composite
Gauss-Legendre panels of the defining integral, and larger |zeta| the
Gaussian-moment asymptotic series in 1/zeta^2.

The change of variables y(z) = ∫_0^z a_0(t;1) dt and the weight
mu(y) = 1/a_0(z(y);1) turn the critical-field condition into a Schrodinger
eigenvalue problem; both are supported far into the tail (|y| of several
hundred) by carrying log z instead of z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import erfcx, roots_legendre

__all__ = [
    "PotentialSpec",
    "VariableMap",
    "SWITCH_RADIUS",
    "a_ell_grid",
    "a_scaled_vec",
    "a0_scaled",
    "z_of_y",
    "log_mu_of_y",
    "mu_bound_constant",
]

SQRT_PI_OVER_2 = math.sqrt(math.pi / 2.0)

# Switch radius in the scaled variable zeta = sqrt(B) z.  Beyond it the
# asymptotic series (12 terms) is accurate to ~1e-15.
SWITCH_RADIUS = 30.0

_QUAD_OPTS = dict(epsabs=1e-300, epsrel=1e-13, limit=400)


@dataclass(frozen=True)
class PotentialSpec:
    """Coupling nu = Z*alpha, dimensionless field B, Landau index ell."""

    nu: float
    B: float
    ell: int = 0

    def __post_init__(self):
        if not (0.0 < self.nu < 1.0):
            raise ValueError(f"nu must lie in (0, 1), got {self.nu}")
        if not (self.B > 0.0 and math.isfinite(self.B)):
            raise ValueError(f"B must be positive and finite, got {self.B}")
        if self.ell < 0 or self.ell != int(self.ell):
            raise ValueError(f"ell must be a nonnegative integer, got {self.ell}")


@dataclass(frozen=True)
class VariableMap:
    """A point of the y(z) map together with the weight mu(y) = 1/a_0(z;1).

    ``log_z`` and ``log_mu`` stay finite deep in the tail where ``z`` and
    ``mu_at_y`` themselves would overflow; for |y| <= ~700 all fields are
    finite floats.
    """

    z: float
    y: float
    mu_at_y: float
    log_abs_z: float
    log_mu: float


# ---------------------------------------------------------------------------
# scaled potential a_ell(zeta) := a_ell(zeta; B=1)
# ---------------------------------------------------------------------------

def a0_scaled(zeta):
    """a_0(zeta; 1) = sqrt(pi/2) * erfcx(|zeta|/sqrt(2)), exact for all zeta.

    Closed form obtained from the substitution u^2 = t^2 + zeta^2 in the
    defining integral; the library's only route for ell = 0.
    """
    return SQRT_PI_OVER_2 * erfcx(np.abs(zeta) / np.sqrt(2.0))


def _a_scaled_asymptotic(ell: int, zeta):
    """Large-|zeta| series (1/|zeta|) sum_k (-1)^k g_k |zeta|^(-2k), k <= 12.

    g_k = C(2k,k) 2^(-k) (ell+k)!/ell! comes from expanding 1/sqrt(t^2+zeta^2)
    and integrating Gaussian moments termwise.  The series is asymptotic, but
    beyond the switch radius its terms still decrease at k = 12, where they
    are far below double precision.  Accepts floats and arrays.
    """
    z2inv = 1.0 / (zeta * zeta)
    total = power = 1.0
    g, sign = 1.0, 1.0
    for k in range(1, 13):
        g *= (2 * k - 1) / k * (ell + k)
        sign = -sign
        power = power * z2inv
        total = total + sign * g * power
    return total / abs(zeta)


# Fixed Gauss-Legendre panels for the vectorized grid evaluator (ell >= 1).
_GL_X, _GL_W = roots_legendre(32)


def _a_scaled_grid_gl(ell: int, zetas: np.ndarray) -> np.ndarray:
    """Vectorized a_ell(zeta;1) via the substitution u = t^2 - zeta^2 shifted.

    With t = zeta + v the integrand becomes c_ell [v(2 zeta + v)]^ell
    e^(-v(2 zeta + v)/2), analytic in v >= 0, so composite Gauss-Legendre
    panels converge superalgebraically for every zeta >= 0.
    """
    zetas = np.abs(np.asarray(zetas, dtype=float))
    log_norm = -ell * math.log(2.0) - math.lgamma(ell + 1)
    cutoff = 40.0 + 14.0 * ell
    v_max = -zetas + np.sqrt(zetas * zetas + 2.0 * cutoff)
    edges = np.linspace(0.0, 1.0, 25) ** 1.5
    out = np.zeros_like(zetas)
    for lo_f, hi_f in zip(edges[:-1], edges[1:]):
        lo = lo_f * v_max
        hi = hi_f * v_max
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        v = mid[:, None] + half[:, None] * _GL_X[None, :]
        u = v * (2.0 * zetas[:, None] + v)
        if ell == 0:
            vals = np.exp(log_norm - 0.5 * u)
        else:
            with np.errstate(divide="ignore"):
                log_u = np.where(u > 0.0, np.log(np.where(u > 0.0, u, 1.0)), -np.inf)
            vals = np.exp(log_norm + ell * log_u - 0.5 * u)
        out += (vals @ _GL_W) * half
    return out


#: degree of the Chebyshev fit of a_ell(zeta; 1) on [0, SWITCH_RADIUS]: at 80
#: it is within 8e-14 relative of the quadrature for ell = 1..5; higher
#: degrees only add rounding (4.6e-13 at 320).
_CHEB_DEGREE = 80


@lru_cache(maxsize=16)
def _scaled_cheb_coeffs(ell: int) -> np.ndarray:
    """Chebyshev fit of a_ell(zeta;1) on [0, Z0]; smooth there (one-sided)."""
    k = np.arange(_CHEB_DEGREE + 1)
    nodes = 0.5 * SWITCH_RADIUS * (1.0 - np.cos(np.pi * k / _CHEB_DEGREE))
    vals = _a_scaled_grid_gl(ell, nodes)
    return chebyshev.chebfit(2.0 * nodes / SWITCH_RADIUS - 1.0, vals, _CHEB_DEGREE)


def a_scaled_vec(ell: int, zeta) -> np.ndarray:
    """Vectorized a_ell(zeta; 1): erfcx closed form for ell = 0, cached
    Chebyshev interpolant inside the switch radius plus the asymptotic series
    outside for ell >= 1."""
    zeta = np.abs(np.asarray(zeta, dtype=float))
    if ell == 0:
        return a0_scaled(zeta)
    coeffs = _scaled_cheb_coeffs(ell)
    out = np.empty_like(zeta)
    near = zeta <= SWITCH_RADIUS
    if np.any(near):
        out[near] = chebyshev.chebval(2.0 * zeta[near] / SWITCH_RADIUS - 1.0, coeffs)
    if np.any(~near):
        out[~near] = _a_scaled_asymptotic(ell, zeta[~near])
    return out


def a_ell_grid(spec: PotentialSpec, z: np.ndarray) -> np.ndarray:
    """Vectorized a_ell(z; B) on an array of z values.

    The library's one evaluation path for a_ell; it agrees with an adaptive
    quadrature of the defining integral to ~1e-11 relative (tested).
    """
    z = np.asarray(z, dtype=float)
    rootB = math.sqrt(spec.B)
    return rootB * a_scaled_vec(spec.ell, rootB * z)


# ---------------------------------------------------------------------------
# change of variables y(z), inverse z(y), weight mu(y)
# ---------------------------------------------------------------------------

def _a0_scalar(t: float) -> float:
    return SQRT_PI_OVER_2 * erfcx(abs(t) / math.sqrt(2.0))


@lru_cache(maxsize=1)
def _y_at_switch() -> float:
    """y(Z0) = ∫_0^Z0 a_0(t;1) dt."""
    val, _ = quad(_a0_scalar, 0.0, SWITCH_RADIUS, **_QUAD_OPTS)
    return val


def _tail_correction(z2inv):
    """D with y(z) = log z + gamma + D for z >= Z0, in z2inv = 1/z^2; D = O(1/z^2).

    Horner form; accepts floats and arrays.
    """
    return z2inv * (0.5 + z2inv * (-0.75 + z2inv * (15.0 / 6.0 + z2inv * (-105.0 / 8.0))))


@lru_cache(maxsize=1)
def _log_offset() -> float:
    """gamma = lim_(z->inf) [y(z) - log z], via the tail series at the switch."""
    z0 = SWITCH_RADIUS
    return _y_at_switch() - math.log(z0) - _tail_correction(1.0 / (z0 * z0))


def _log_z_far(y: np.ndarray) -> np.ndarray:
    """log z(y) for y beyond y(Z0): fixed point of log z = y - gamma - D(z)."""
    target = y - _log_offset()
    log_z = target.copy()
    for _ in range(3):
        log_z = target - _tail_correction(np.exp(-2.0 * np.minimum(log_z, 350.0)))
    return log_z


@lru_cache(maxsize=1)
def _inverse_cheb():
    """Chebyshev interpolant of z(y) on [0, y(Z0)], built once per process."""
    y0 = _y_at_switch()
    k = np.arange(161)
    nodes_y = 0.5 * y0 * (1.0 - np.cos(np.pi * k / 160))
    nodes_z = np.empty_like(nodes_y)
    for i, yv in enumerate(nodes_y):
        if yv <= 0.0:
            nodes_z[i] = 0.0
            continue
        f = lambda zz: quad(_a0_scalar, 0.0, zz, **_QUAD_OPTS)[0] - yv
        nodes_z[i] = brentq(f, 0.0, SWITCH_RADIUS * (1.0 + 1e-12), xtol=1e-15, rtol=8.9e-16)
    coeffs = chebyshev.chebfit(2.0 * nodes_y / y0 - 1.0, nodes_z, 160)
    return y0, coeffs


def _z_of_y_core(y: float) -> tuple[float, float]:
    """(z, log z) for y >= 0; z may overflow to inf while log z stays finite."""
    y0, coeffs = _inverse_cheb()
    if y <= y0:
        z = float(chebyshev.chebval(2.0 * y / y0 - 1.0, coeffs))
        z = max(z, 0.0)
        return z, (math.log(z) if z > 0.0 else -math.inf)
    log_z = float(_log_z_far(np.array([y]))[0])
    try:
        z = math.exp(log_z)
    except OverflowError:
        z = math.inf
    return z, log_z


def z_of_y(y: float) -> VariableMap:
    """Inverse map z(y); exact odd symmetry, log-space beyond the switch."""
    if not math.isfinite(y):
        raise ValueError(f"y must be finite, got {y}")
    ay = abs(y)
    z, log_z = _z_of_y_core(ay)
    log_mu = float(log_mu_of_y(np.array([ay]))[0])
    try:
        mu = math.exp(log_mu)
    except OverflowError:
        mu = math.inf
    return VariableMap(
        z=math.copysign(z, y) if y != 0.0 else 0.0,
        y=y,
        mu_at_y=mu,
        log_abs_z=log_z,
        log_mu=log_mu,
    )


def log_mu_of_y(y) -> np.ndarray:
    """log mu(y) on an array of y values; mu(y) = 1/a_0(z(y);1), even in y.

    Carried fully in logarithms so that potentials exp(log kappa + log mu)
    can be assembled without overflow for |y| of a few hundred.
    """
    y = np.abs(np.asarray(y, dtype=float))
    y0, coeffs = _inverse_cheb()
    out = np.empty_like(y)
    near = y <= y0
    if np.any(near):
        z = chebyshev.chebval(2.0 * y[near] / y0 - 1.0, coeffs)
        out[near] = -np.log(a0_scaled(z))
    if np.any(~near):
        log_z = _log_z_far(y[~near])
        z2inv = np.exp(-2.0 * np.minimum(log_z, 350.0))
        series = 1.0 + z2inv * (-1.0 + z2inv * (3.0 + z2inv * (-15.0 + z2inv * 105.0)))
        out[~near] = log_z - np.log(series)
    return out


def mu_bound_constant() -> float:
    """Smallest c with mu(y) <= c e^|y| for all y: c = mu(0) = 1/a_0(0) = sqrt(2/pi).

    Proof that mu(y) e^(-|y|) strictly decreases in |y|: a_0(z;1) =
    sqrt(pi/2) erfcx(z/sqrt(2)) is the normal Mills ratio, so a_0' = z a_0 - 1
    for z >= 0, and dz/dy = 1/a_0.  With log mu = -log a_0 that gives
    d/dy [log mu - y] = (1 - z a_0 - a_0^2) / a_0^2, and Birnbaum's bound
    a_0 > (sqrt(z^2 + 4) - z)/2 (Ann. Math. Statist. 13, 1942) is the
    statement a_0 (a_0 + z) > 1, so the derivative is negative.
    """
    return math.sqrt(2.0 / math.pi)
