"""Trial-state energies on the transverse zero modes, and certified bounds.

A trial state is a transverse zero mode of index ``ell`` times a longitudinal
profile f(z).  On such states the magnetic Dirac derivative reduces to the
longitudinal one, and the instability functional collapses to one dimension:

    G[f] = (1/nu) ∫ w_ell(z; B) |f'(z)|^2 dz - nu ∫ a_ell(z; B) |f(z)|^2 dz,

where a_ell is the zero-mode average of 1/r and w_ell the average of r over
the same transverse density (for ell = 0, w = |z| + a/B exactly).  Whenever
G + 2 ||f||^2 <= 0 the full ground level has reached -1 at that field, which
turns negative values of the scale-reduced G at B = 1 into certified upper
bounds for the critical field: sqrt(B_cert) = 2/|G_1|.

Families used for certificates are canonical shapes modulo the longitudinal
rescaling f -> B^(1/4) f(sqrt(B) z) (the rescaling direction is exactly what
the field scan consumes): the Gaussian family has a single canonical member,
the plateau family keeps its width and ramp-ratio as shape parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# quad is called nowhere here; the benchmark's trace (perfbench/layers.py)
# still wraps trial_bounds.quad
from scipy.integrate import quad  # noqa: F401
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize_scalar
from scipy.special import roots_legendre

from . import potentials
from .errors import AccuracyError
from .potentials import a0_scaled, a_scaled_vec

__all__ = [
    "GaussianProfile",
    "PlateauProfile",
    "TabulatedProfile",
    "HermiteBasisProfile",
    "RescaledProfile",
    "TrialState",
    "TrialEvaluation",
    "UpperBoundCertificate",
    "w_scaled_vec",
    "evaluate_GB",
    "certify_critical_upper_bound",
    "check_sqrt5_inequality",
]

#: coordinate sweeps (half-width, then ramp ratio) of the plateau search; the
#: search stops here, before it converges (certify_critical_upper_bound)
PLATEAU_SWEEPS = 3

# smoothstep ramp s(t) = 1 - (10 t^3 - 15 t^4 + 6 t^5): C^2, s(0)=1, s(1)=0
_RAMP_SQ_INTEGRAL = 181.0 / 462.0     # ∫_0^1 s(t)^2 dt


class GaussianProfile:
    """f(z) = (2 pi w^2)^(-1/4) exp(-z^2/(4 w^2)), unit L2 norm."""

    def __init__(self, width: float = 1.0):
        if width <= 0.0:
            raise ValueError(f"width must be positive, got {width}")
        self.width = width
        self._amp = (2.0 * math.pi * width * width) ** -0.25

    def value(self, z):
        z = np.asarray(z, dtype=float)
        return self._amp * np.exp(-z * z / (4.0 * self.width**2))

    def derivative(self, z):
        z = np.asarray(z, dtype=float)
        return -z / (2.0 * self.width**2) * self.value(z)

    def norm_sq(self) -> float:
        return 1.0

    def support_radius(self) -> float:
        return 14.0 * self.width

    def breakpoints(self):
        return [0.0]


class PlateauProfile:
    """f = 1 on [-d, d], quintic smoothstep to 0 across [d, d + ramp]."""

    def __init__(self, half_width: float, ramp: float):
        if half_width <= 0.0 or ramp <= 0.0:
            raise ValueError("half_width and ramp must be positive")
        self.half_width = half_width
        self.ramp = ramp

    def value(self, z):
        az = np.abs(np.asarray(z, dtype=float))
        t = np.clip((az - self.half_width) / self.ramp, 0.0, 1.0)
        return 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t * t)

    def derivative(self, z):
        z = np.asarray(z, dtype=float)
        az = np.abs(z)
        t = (az - self.half_width) / self.ramp
        inside = (t > 0.0) & (t < 1.0)
        t = np.clip(t, 0.0, 1.0)
        slope = -30.0 * t * t * (1.0 - t) ** 2 / self.ramp
        return np.where(inside, slope * np.sign(z), 0.0)

    def norm_sq(self) -> float:
        return 2.0 * self.half_width + 2.0 * self.ramp * _RAMP_SQ_INTEGRAL

    def support_radius(self) -> float:
        return self.half_width + self.ramp

    def breakpoints(self):
        return [-self.half_width, 0.0, self.half_width]


class TabulatedProfile:
    """Cubic-spline profile through sample points, clamped to zero outside."""

    def __init__(self, z: np.ndarray, values: np.ndarray):
        z = np.asarray(z, dtype=float)
        values = np.asarray(values, dtype=float)
        if z.ndim != 1 or z.shape != values.shape or len(z) < 4:
            raise ValueError("need matching 1-d arrays with at least 4 samples")
        self._lo, self._hi = float(z[0]), float(z[-1])
        self._spline = CubicSpline(z, values, bc_type="natural")
        self._dspline = self._spline.derivative()

    def value(self, z):
        z = np.asarray(z, dtype=float)
        inside = (z >= self._lo) & (z <= self._hi)
        return np.where(inside, self._spline(np.clip(z, self._lo, self._hi)), 0.0)

    def derivative(self, z):
        z = np.asarray(z, dtype=float)
        inside = (z >= self._lo) & (z <= self._hi)
        return np.where(inside, self._dspline(np.clip(z, self._lo, self._hi)), 0.0)

    def norm_sq(self) -> float:
        # the square of a cubic is a sextic: the 32-point rule on every knot
        # panel sums it exactly
        z, wt = _panel_nodes(self._spline.x)
        return float(wt @ self._spline(z) ** 2)

    def support_radius(self) -> float:
        return max(abs(self._lo), abs(self._hi))

    def breakpoints(self):
        # the knots: the spline is one cubic between neighbours
        return [0.0, *self._spline.x]


class HermiteBasisProfile:
    """f(z) = sum_k c_k psi_k(z/s)/sqrt(s) on orthonormal oscillator functions.

    Exact values and derivatives through the standard recurrences, exact
    norm_sq = sum c_k^2; the random-state generator of the inequality check
    draws its coefficients here.
    """

    def __init__(self, coeffs, scale: float = 2.0):
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.ndim != 1 or len(self.coeffs) == 0:
            raise ValueError("coeffs must be a nonempty 1-d array")
        if scale <= 0.0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = scale

    def _psi_table(self, x: np.ndarray, kmax: int) -> np.ndarray:
        psi = np.empty((kmax + 1, len(x)))
        psi[0] = math.pi**-0.25 * np.exp(-0.5 * x * x)
        if kmax >= 1:
            psi[1] = math.sqrt(2.0) * x * psi[0]
        for k in range(2, kmax + 1):
            psi[k] = math.sqrt(2.0 / k) * x * psi[k - 1] - math.sqrt((k - 1) / k) * psi[k - 2]
        return psi

    def value(self, z):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        x = z / self.scale
        psi = self._psi_table(x, len(self.coeffs) - 1)
        return (self.coeffs @ psi) / math.sqrt(self.scale)

    def derivative(self, z):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        x = z / self.scale
        kmax = len(self.coeffs)
        psi = self._psi_table(x, kmax)
        out = np.zeros_like(x)
        for k, c in enumerate(self.coeffs):
            if c == 0.0:
                continue
            dpsi = -math.sqrt((k + 1) / 2.0) * psi[k + 1]
            if k >= 1:
                dpsi = dpsi + math.sqrt(k / 2.0) * psi[k - 1]
            out += c * dpsi
        return out / self.scale**1.5

    def norm_sq(self) -> float:
        return float(self.coeffs @ self.coeffs)

    def support_radius(self) -> float:
        k = len(self.coeffs) - 1
        return self.scale * (math.sqrt(2.0 * k + 1.0) + 12.0)

    def breakpoints(self):
        return [0.0]


class RescaledProfile:
    """f_B(z) = B^(1/4) f(sqrt(B) z): norm-preserving longitudinal rescaling."""

    def __init__(self, base, B: float):
        if not (B > 0.0 and math.isfinite(B)):
            raise ValueError(f"B must be positive and finite, got {B}")
        self.base = base
        self.B = B
        self._rootB = math.sqrt(B)

    def value(self, z):
        return self.B**0.25 * self.base.value(self._rootB * np.asarray(z, dtype=float))

    def derivative(self, z):
        return self.B**0.75 * self.base.derivative(self._rootB * np.asarray(z, dtype=float))

    def norm_sq(self) -> float:
        return self.base.norm_sq()

    def support_radius(self) -> float:
        return self.base.support_radius() / self._rootB

    def breakpoints(self):
        return [b / self._rootB for b in self.base.breakpoints()]


@dataclass(frozen=True)
class TrialState:
    """Transverse zero mode of index ell times a longitudinal profile."""

    ell: int
    profile: object

    def __post_init__(self):
        if self.ell < 0 or self.ell != int(self.ell):
            raise ValueError(f"ell must be a nonnegative integer, got {self.ell}")

    @property
    def norm(self) -> float:
        return math.sqrt(self.profile.norm_sq())


@dataclass(frozen=True)
class TrialEvaluation:
    G_B: float
    J_at_minus1: float
    certified: bool


@dataclass(frozen=True)
class UpperBoundCertificate:
    family: str
    certified: bool
    m_star: float
    log_B_cert: float | None
    params: dict


# --- kinetic weight w_ell(zeta; 1) = ∫ rho_ell(t) sqrt(t^2 + zeta^2) dt, where
# rho_ell(t) = t^(2ell+1) e^(-t^2/2)/(2^ell ell!) is the density that gives
# a_ell(zeta; 1) = ∫ rho_ell(t)/sqrt(t^2 + zeta^2) dt.  Since
# t^2 rho_ell = 2(ell+1) rho_(ell+1), writing sqrt(t^2 + zeta^2) as
# (t^2 + zeta^2)/sqrt(t^2 + zeta^2) gives w_ell = zeta^2 a_ell + 2(ell+1) a_(ell+1).

def w_scaled_vec(ell: int, zeta) -> np.ndarray:
    """Transverse average of r over the ell-th zero-mode density, at B = 1."""
    zeta = np.abs(np.asarray(zeta, dtype=float))
    if ell == 0:
        return zeta + a0_scaled(zeta)
    return (zeta * zeta * potentials.a_scaled_vec(ell, zeta)
            + 2.0 * (ell + 1) * potentials.a_scaled_vec(ell + 1, zeta))


# --- composite Gauss-Legendre panels in z for the reduced integrals

_GLX32, _GLW32 = roots_legendre(32)


def _panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 32-point rule on every panel between edges."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    return ((mid[:, None] + half[:, None] * _GLX32[None, :]).ravel(),
            (half[:, None] * _GLW32[None, :]).ravel())


def _panel_edges(profile, rootB: float) -> np.ndarray:
    """±R, 0, the profile's breakpoints and the dyadic edges ±2^k/(4 sqrt(B))
    below R; the dyadic edges keep the 1/|z| tail of a_ell to a ratio of two
    per panel."""
    R = profile.support_radius()
    dyadic = 0.25 / rootB * 2.0 ** np.arange(max(0, math.ceil(math.log2(4.0 * R * rootB))))
    edges = np.concatenate(([-R, 0.0, R], profile.breakpoints(), dyadic, -dyadic))
    return np.unique(edges[(edges >= -R) & (edges <= R)])


def evaluate_GB(nu: float, B: float, trial: TrialState, *,
                epsrel: float = 1e-10) -> TrialEvaluation:
    """Instability functional on a zero-mode trial, by the reduced integrals.

    The transverse plane is integrated out exactly (Gaussian-weight moments),
    leaving kin = ∫ w_ell |f'|^2 and pot = ∫ a_ell |f|^2 over z.  Both are
    summed by the 32-point Gauss-Legendre rule on fixed panels between ±R,
    0, the profile's breakpoints and the dyadic edges ±2^k/(4 sqrt(B)), with
    one array evaluation of the weights and the profile per rule.  The
    rule is applied again with every panel split in two, and that value is
    returned.  ``epsrel`` is the stopping criterion: if the two values of G
    differ by more than epsrel (kin/nu + nu pot), AccuracyError is raised.
    """
    if not (0.0 < nu < 1.0):
        raise ValueError(f"nu must lie in (0, 1), got {nu}")
    if not (B > 0.0 and math.isfinite(B)):
        raise ValueError(f"B must be positive and finite, got {B}")
    ell = trial.ell
    profile = trial.profile
    rootB = math.sqrt(B)

    def integrals(edges):
        z, wt = _panel_nodes(edges)
        kin = wt @ (w_scaled_vec(ell, rootB * z) / rootB * profile.derivative(z) ** 2)
        pot = wt @ (rootB * a_scaled_vec(ell, rootB * z) * profile.value(z) ** 2)
        return float(kin), float(pot)

    edges = _panel_edges(profile, rootB)
    kin_c, pot_c = integrals(edges)
    split = np.sort(np.concatenate((edges, 0.5 * (edges[:-1] + edges[1:]))))
    kin, pot = integrals(split)
    g = kin / nu - nu * pot
    gap = abs(g - (kin_c / nu - nu * pot_c))
    if gap > epsrel * (kin / nu + nu * pot):
        raise AccuracyError(
            f"panel doubling moved G by {gap:.3e}, more than epsrel = {epsrel:g} "
            f"of kin/nu + nu pot = {kin / nu + nu * pot:.6e}")
    j = g + 2.0 * profile.norm_sq()
    return TrialEvaluation(G_B=g, J_at_minus1=j, certified=j <= 0.0)


def _g1(nu: float, ell: int, profile) -> float:
    """Scale-reduced functional per unit norm; the certificate quantity."""
    ev = evaluate_GB(nu, 1.0, TrialState(ell=ell, profile=profile))
    return ev.G_B / profile.norm_sq()


def certify_critical_upper_bound(nu: float, family: str = "gaussian") -> UpperBoundCertificate:
    """Certified upper bound for the critical field from one trial family.

    Searches the family's shape parameters for a low value m* of the
    scale-reduced functional; a negative m* turns into
    log B_cert = 2 log(2/|m*|), a valid bound for any profile, minimal or
    not.  A nonnegative m* reports "no certificate" rather than an error.

    The Gaussian family is a single canonical shape (its width is the
    rescaling direction, already consumed by the field scan), so its
    certificate reproduces the closed form 18 pi nu^2/(3 nu^2 - 2)^2
    whenever nu^2 > 2/3.  The plateau family's m* is the best of
    PLATEAU_SWEEPS coordinate sweeps (bounded golden-section search in the
    half-width, then the ramp ratio), not the family's minimum: at nu = 0.85
    it is -0.144 after 3 sweeps and still falling after 10 (-0.184).
    """
    if not (0.0 < nu < 1.0):
        raise ValueError(f"nu must lie in (0, 1), got {nu}")
    if family == "gaussian":
        m_star = _g1(nu, 0, GaussianProfile(1.0))
        params = {"width": 1.0}
    elif family == "plateau":
        # shape parameters: half-width d (log10 scale) and ramp ratio r/d
        x = math.log10(50.0)
        rho = 1.0
        for _ in range(PLATEAU_SWEEPS):
            res = minimize_scalar(
                lambda lx: _g1(nu, 0, PlateauProfile(10.0**lx, rho * 10.0**lx)),
                bounds=(-0.5, 6.5), method="bounded",
                options={"xatol": 1e-6},
            )
            x = float(res.x)
            res = minimize_scalar(
                lambda r: _g1(nu, 0, PlateauProfile(10.0**x, r * 10.0**x)),
                bounds=(0.1, 24.0), method="bounded",
                options={"xatol": 1e-6},
            )
            rho = float(res.x)
        m_star = _g1(nu, 0, PlateauProfile(10.0**x, rho * 10.0**x))
        params = {"half_width": 10.0**x, "ramp": rho * 10.0**x}
    else:
        raise ValueError(f"unknown trial family {family!r}")

    if m_star < 0.0:
        log_b = 2.0 * (math.log(2.0) - math.log(-m_star))
        return UpperBoundCertificate(family=family, certified=True, m_star=m_star,
                                     log_B_cert=log_b, params=params)
    return UpperBoundCertificate(family=family, certified=False, m_star=m_star,
                                 log_B_cert=None, params=params)


def check_sqrt5_inequality(nu: float, samples: int = 200, seed: int = 0) -> float:
    """Worst G_1[phi]/||phi||^2 over random zero-mode trials.

    Draws random Landau indices in {0..3} and random smooth profiles from an
    8-function oscillator-envelope basis with standard-normal coefficients;
    every ratio must stay above -nu sqrt(5) (tested with an 1e-8 margin).
    Fixed seed gives bit-for-bit reproducible output.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(samples):
        ell = int(rng.integers(0, 4))
        coeffs = rng.standard_normal(8)
        profile = HermiteBasisProfile(coeffs, scale=2.0)
        ev = evaluate_GB(nu, 1.0, TrialState(ell=ell, profile=profile), epsrel=1e-9)
        worst = min(worst, ev.G_B / profile.norm_sq())
    return worst
