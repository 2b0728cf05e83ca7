"""Landau-averaged Coulomb potentials and the logarithmic change of variables.

The transverse zero mode of index ``ell`` in a field ``B`` sees the effective
one-dimensional attraction

    a_ell(z; B) = (B^(ell+1) / (2^ell ell!)) ∫_0^∞ s^(2ell+1) e^(-B s^2/2) / sqrt(s^2+z^2) ds,

which obeys the exact scaling a_ell(z; B) = sqrt(B) * a_ell(sqrt(B) z; 1), so
everything is computed in the scaled variable zeta = sqrt(B) z.  For ell = 0
the closed form sqrt(pi/2) erfcx(|zeta|/sqrt(2)) holds everywhere.  Up to
|zeta| = SWITCH_RADIUS, ell = 1 uses the closed form a_1 = (|zeta| +
(1 - zeta^2) a_0)/2 and ell >= 2 a degree-80 Chebyshev fit of composite
Gauss-Legendre panels of the defining integral; for ell >= 1 larger |zeta|
use the Gaussian-moment asymptotic series in 1/zeta^2.  The module owns the
package's one panel rule (:func:`_panel_nodes`) and its one 1/zeta^2 series
(:func:`_series`).

The change of variables y(z) = ∫_0^z a_0(t;1) dt and the weight
mu(y) = 1/a_0(z(y);1) turn the critical-field condition into a Schrodinger
eigenvalue problem; both are supported far into the tail (|y| of several
hundred) by carrying log z instead of z.  Up to SWITCH_RADIUS, y(z) is the
``chebint`` of a Chebyshev interpolant of a_0, and z(y)/y is interpolated through
vectorised Newton roots of it (the derivative a_0 is exact); beyond, y(z) is
log z + gamma plus the integrated 1/z^2 series of a_0, inverted in log z, with
the exact constant gamma = LOG_OFFSET = (gamma_E + ln 2)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev, polynomial
from scipy.special import erfcx, roots_legendre

from .errors import AccuracyError

__all__ = [
    "PotentialSpec",
    "VariableMap",
    "SWITCH_RADIUS",
    "LOG_OFFSET",
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


def _check_ell(ell) -> int:
    """ell as an int; ValueError unless it is a nonnegative integer."""
    if not (ell >= 0 and ell % 1 == 0):
        raise ValueError(f"ell must be a nonnegative integer, got {ell}")
    return int(ell)


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
        _check_ell(self.ell)


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


@lru_cache(maxsize=16)
def _series(ell: int) -> np.ndarray:
    """(-1)^k g_k, k <= 12, of a_ell(zeta; 1) = (1/|zeta|) sum_k (-1)^k g_k |zeta|^(-2k).

    g_k = C(2k,k) 2^(-k) (ell+k)!/ell! (exactly (2k-1)!! for ell = 0) comes
    from expanding 1/sqrt(t^2+zeta^2) and integrating Gaussian moments
    termwise.  The series is asymptotic, but beyond the switch radius its
    terms still decrease at k = 12, where they are far below double
    precision.  Read-only, since the cache shares it.
    """
    coeffs = np.array([(-1) ** k * math.comb(2 * k, k) * math.perm(ell + k, k) / 2**k
                       for k in range(13)])
    coeffs.setflags(write=False)
    return coeffs


def _a_scaled_asymptotic(ell: int, zeta):
    """a_ell(zeta; 1) from the 1/zeta^2 series of :func:`_series`; floats and arrays."""
    return polynomial.polyval(1.0 / (zeta * zeta), _series(ell)) / abs(zeta)


# The package's one panel rule: 32-point Gauss-Legendre on [-1, 1].
_GL_X, _GL_W = roots_legendre(32)


def _panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 32-point Gauss-Legendre rule on every panel
    between edges."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + half[:, None] * _GL_X[None, :]).ravel(),
            (half[:, None] * _GL_W[None, :]).ravel())


def _a_scaled_grid_gl(ell: int, zetas: np.ndarray) -> np.ndarray:
    """Vectorized a_ell(zeta;1), ell >= 1, via the substitution u = t^2 - zeta^2 shifted.

    With t = zeta + v the integrand becomes c_ell [v(2 zeta + v)]^ell
    e^(-v(2 zeta + v)/2), analytic in v >= 0, so composite Gauss-Legendre
    panels converge superalgebraically for every zeta >= 0.  The rule on 24
    graded panels of [0, 1], scaled to [0, v_max], is summed panel by panel;
    its nodes are interior, so u > 0 at each.
    """
    zetas = np.abs(np.asarray(zetas, dtype=float))
    log_norm = -ell * math.log(2.0) - math.lgamma(ell + 1)
    cutoff = 40.0 + 14.0 * ell
    v_max = -zetas + np.sqrt(zetas * zetas + 2.0 * cutoff)
    nodes, weights = _panel_nodes(np.linspace(0.0, 1.0, 25) ** 1.5)
    out = np.zeros_like(zetas)
    for x, w in zip(nodes.reshape(-1, _GL_X.size), weights.reshape(-1, _GL_X.size)):
        v = v_max[:, None] * x
        u = v * (2.0 * zetas[:, None] + v)
        out += np.exp(log_norm + ell * np.log(u) - 0.5 * u) @ w
    return out * v_max


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
    """Vectorized a_ell(zeta; 1): erfcx closed form for ell = 0; inside the
    switch radius the closed form a_1 = (|zeta| + (1 - zeta^2) a_0)/2 for
    ell = 1 and the cached Chebyshev interpolant for ell >= 2, outside it the
    asymptotic series.  ValueError unless ell is a nonnegative integer.

    a_1 is the ell = 0 case of the kinetic weight's identity w_ell =
    zeta^2 a_ell + 2(ell + 1) a_(ell+1) = |zeta| + sum_(j <= ell) a_j
    (trial_bounds), within 1.7e-13 relative of the fit it replaces; near
    zeta = 30 its cancellation costs about 1e-13.  Solved for a_(ell+1) at
    ell >= 1 it would cost a_2 3e-11 there, so ell >= 2 keeps the fit."""
    ell = _check_ell(ell)
    zeta = np.abs(np.asarray(zeta, dtype=float))
    if ell == 0:
        return a0_scaled(zeta)
    out = np.empty_like(zeta)
    near = zeta <= SWITCH_RADIUS
    if np.any(near):
        inner = zeta[near]
        out[near] = (0.5 * (inner + (1.0 - inner * inner) * a0_scaled(inner)) if ell == 1 else
                     chebyshev.chebval(2.0 * inner / SWITCH_RADIUS - 1.0, _scaled_cheb_coeffs(ell)))
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

#: Chebyshev degree of y(z) and z(y)/y on [0, Z0]: higher degrees only add rounding
#: (log mu against quad on 3 100 points: 2.2e-14 off at 56, 1.8e-13 at 160)
_MAP_DEGREE = 56


@lru_cache(maxsize=1)
def _inverse_cheb():
    """(y(Z0), Chebyshev coefficients of z(y)/y on [0, y(Z0)]), built once per process.

    y(z) is the ``chebint`` of the interpolant of a0_scaled.  At the Chebyshev
    points y_k, z starts from linear interpolation and takes four Newton steps
    z -= (y(z) - y_k)/a_0(z) (residuals 1e-5, 5e-11, then rounding); a residual
    above 8 eps y(Z0) raises AccuracyError.
    """
    y_coeffs = chebyshev.chebint(
        chebyshev.chebinterpolate(lambda x: a0_scaled(0.5 * SWITCH_RADIUS * (1.0 + x)), _MAP_DEGREE),
        lbnd=-1.0, scl=0.5 * SWITCH_RADIUS)

    def y_of(z):
        return chebyshev.chebval(2.0 * z / SWITCH_RADIUS - 1.0, y_coeffs)

    y0 = float(y_of(SWITCH_RADIUS))

    def z_at(x):
        nodes_z = 0.5 * SWITCH_RADIUS * (1.0 + x)
        nodes_y = 0.5 * y0 * (1.0 + x)
        z = np.interp(nodes_y, y_of(nodes_z), nodes_z)
        for _ in range(4):
            z = z - (y_of(z) - nodes_y) / a0_scaled(z)
        residual = float(np.max(np.abs(y_of(z) - nodes_y)))
        if residual > 8.0 * np.finfo(float).eps * y0:
            raise AccuracyError(f"Newton inversion of y(z) left a residual of {residual:.3e}")
        return z / nodes_y

    return y0, chebyshev.chebinterpolate(z_at, _MAP_DEGREE)


#: c_k = (-1)^k (2k-1)!!, k = 0..8, the ell = 0 series: z a_0(z;1) = sum_k c_k z^(-2k)
#: for z >= Z0, where the first term left out, 17!!/z^18, is below 1e-19
_A0_TAIL = _series(0)[:9]
#: its termwise integral: D(z) = sum_(k>=1) c_k z^(-2k)/(-2k)
_Y_TAIL = np.concatenate(([0.0], _A0_TAIL[1:] / (-2.0 * np.arange(1, 9))))


def _tail_correction(z2inv):
    """D with y(z) = log z + gamma + D for z >= Z0, in z2inv = 1/z^2 (floats or arrays)."""
    return polynomial.polyval(z2inv, _Y_TAIL)


#: gamma = lim_(z->inf) [y(z) - log z] = (gamma_E + ln 2)/2 exactly: y(z) is
#: ∫_0^inf s e^(-s^2/2) asinh(z/s) ds = log 2z - E[log s] + o(1), with s
#: Rayleigh-distributed, E[log s] = (ln 2 - gamma_E)/2
LOG_OFFSET = (np.euler_gamma + math.log(2.0)) / 2.0


def _log_z_far(target: np.ndarray) -> np.ndarray:
    """log z with log z = target - D(z), where target = y - gamma, y > y(Z0).

    The fixed-point map contracts by |dD/dlog z| <= 1/Z0^2 ~ 1.1e-3 and the
    start misses by D(Z0) ~ 5.6e-4, so five steps leave an error below 1e-18.
    """
    log_z = target
    for _ in range(5):
        log_z = target - _tail_correction(np.exp(-2.0 * log_z))
    return log_z


def _map(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(log z, log mu) on an array of y >= 0: log of y times the Chebyshev
    interpolant of z(y)/y up to y(Z0) (so z(0) = 0 exactly), the fixed point
    in log z beyond it; both stay finite where z and mu overflow.  A branch
    with no points is skipped, so a one-point call runs only its own."""
    y0, coeffs = _inverse_cheb()
    near = y <= y0
    # beyond log z = 20, D(z) and log(z a_0) are below 5e-18, under the
    # rounding of log z, so there log mu = log z = y - gamma
    log_z = np.subtract(y, LOG_OFFSET, out=np.empty_like(y))
    log_mu = log_z.copy()
    if near.any():
        z = y[near] * chebyshev.chebval(2.0 * y[near] / y0 - 1.0, coeffs)
        with np.errstate(divide="ignore"):
            log_z[near] = np.log(z)
        log_mu[near] = -np.log(a0_scaled(z))
    tail = ~near & (log_z < 20.0)
    if tail.any():
        log_z[tail] = _log_z_far(log_z[tail])
        log_mu[tail] = log_z[tail] - np.log(polynomial.polyval(np.exp(-2.0 * log_z[tail]), _A0_TAIL))
    return log_z, log_mu


def z_of_y(y: float) -> VariableMap:
    """Inverse map z(y); exact odd symmetry, log-space beyond the switch."""
    if not math.isfinite(y):
        raise ValueError(f"y must be finite, got {y}")
    log_z, log_mu = (float(v[0]) for v in _map(np.array([abs(y)])))
    with np.errstate(over="ignore"):
        z, mu = (float(v) for v in np.exp([log_z, log_mu]))
    return VariableMap(z=math.copysign(z, y) if y != 0.0 else 0.0, y=y, mu_at_y=mu,
                       log_abs_z=log_z, log_mu=log_mu)


def log_mu_of_y(y) -> np.ndarray:
    """log mu(y) on an array of y values; mu(y) = 1/a_0(z(y);1), even in y.

    Carried fully in logarithms so that potentials exp(log kappa + log mu)
    can be assembled without overflow for |y| of a few hundred.
    """
    return _map(np.abs(np.asarray(y, dtype=float)))[1]


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
