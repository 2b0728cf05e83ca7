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
from scipy.optimize import minimize_scalar

from . import potentials
from .errors import AccuracyError
from .potentials import PotentialSpec, a_scaled_vec

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


def _check_positive_finite(**values: float) -> None:
    for name, value in values.items():
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value}")


class GaussianProfile:
    """f(z) = (2 pi w^2)^(-1/4) exp(-z^2/(4 w^2)), unit L2 norm."""

    def __init__(self, width: float = 1.0):
        _check_positive_finite(width=width)
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
        _check_positive_finite(half_width=half_width, ramp=ramp)
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
        # imported here, so that importing the package does not load scipy.interpolate
        from scipy.interpolate import CubicSpline
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
        z, wt = potentials._panel_nodes(self._spline.x)
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
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError(f"coeffs must be finite, got {self.coeffs}")
        _check_positive_finite(scale=scale)
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
        c = self.coeffs
        # psi_k' = sqrt(k/2) psi_(k-1) - sqrt((k+1)/2) psi_(k+1), gathered by index
        ladder = np.sqrt(np.arange(1, len(c) + 1) / 2.0)
        d = np.zeros(len(c) + 1)
        d[:-2] = ladder[:-1] * c[1:]
        d[1:] -= ladder * c
        return d @ self._psi_table(z / self.scale, len(c)) / self.scale**1.5

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
        _check_positive_finite(B=B)
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
        potentials._check_ell(self.ell)


@dataclass(frozen=True)
class TrialEvaluation:
    G_B: float
    J_at_minus1: float
    certified: bool


@dataclass(frozen=True)
class UpperBoundCertificate:
    """m* of a trial family and, if m* < 0, the bound log B_cert it certifies.

    "Certified" means up to the panel rule's checked quadrature gap: every G
    behind m* passed :func:`evaluate_GB`'s panel-doubling check at its
    default ``epsrel``, and that gap estimates the quadrature error, it
    does not bound it.
    """

    family: str
    certified: bool
    m_star: float
    log_B_cert: float | None
    params: dict


# --- kinetic weight w_ell(zeta; 1) = ∫ rho_ell(t) sqrt(t^2 + zeta^2) dt, where
# rho_ell(t) = t^(2ell+1) e^(-t^2/2)/(2^ell ell!) is the density that gives
# a_ell(zeta; 1) = ∫ rho_ell(t)/sqrt(t^2 + zeta^2) dt.  Since
# t^2 rho_ell = 2(ell+1) rho_(ell+1), writing sqrt(t^2 + zeta^2) as
# (t^2 + zeta^2)/sqrt(t^2 + zeta^2) gives w_ell = zeta^2 a_ell + 2(ell+1) a_(ell+1);
# for ell = 0 that is |zeta| + a_0.  _weights holds the identity and reuses a_ell.

def _weights(ell: int, zeta) -> tuple[np.ndarray, np.ndarray]:
    """(a_ell, w_ell) at B = 1 on an array of zeta, from one a_ell evaluation."""
    zeta = np.abs(np.asarray(zeta, dtype=float))
    a = a_scaled_vec(ell, zeta)
    if ell == 0:
        return a, zeta + a
    return a, zeta * zeta * a + 2.0 * (ell + 1) * a_scaled_vec(ell + 1, zeta)


def w_scaled_vec(ell: int, zeta) -> np.ndarray:
    """Transverse average of r over the ell-th zero-mode density, at B = 1."""
    return _weights(ell, zeta)[1]


# --- composite Gauss-Legendre panels (potentials' rule) in z for the reduced integrals

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
    0, the profile's breakpoints and the dyadic edges ±2^k/(4 sqrt(B)), and
    again with every panel split in two; the split rule's value is returned.
    The weights and the profile are evaluated in one array pass on both
    rules' nodes together.  ``epsrel`` is the stopping criterion: if the two
    values of G differ by more than epsrel (kin/nu + nu pot), AccuracyError
    is raised; it must be positive and finite.
    """
    PotentialSpec(nu, B, trial.ell)  # ValueError for nu, B or ell out of range
    _check_positive_finite(epsrel=epsrel)
    profile = trial.profile
    rootB = math.sqrt(B)

    edges = _panel_edges(profile, rootB)
    split = np.sort(np.concatenate((edges, 0.5 * (edges[:-1] + edges[1:]))))
    z_c, wt_c = potentials._panel_nodes(edges)
    z_f, wt_f = potentials._panel_nodes(split)
    z = np.concatenate((z_c, z_f))
    a, w = _weights(trial.ell, rootB * z)
    kin_density = w / rootB * profile.derivative(z) ** 2
    pot_density = rootB * a * profile.value(z) ** 2
    k = z_c.size
    kin_c, pot_c = float(wt_c @ kin_density[:k]), float(wt_c @ pot_density[:k])
    kin, pot = float(wt_f @ kin_density[k:]), float(wt_f @ pot_density[k:])
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


def _line_search(f, bounds: tuple[float, float]) -> float:
    """Bounded golden-section argmin of f; AccuracyError unless it converged."""
    res = minimize_scalar(f, bounds=bounds, method="bounded", options={"xatol": 1e-6})
    if not res.success:
        raise AccuracyError(f"plateau line search did not converge: {res.message}")
    return float(res.x)


def certify_critical_upper_bound(nu: float, family: str = "gaussian") -> UpperBoundCertificate:
    """Certified upper bound for the critical field from one trial family.

    Searches the family's shape parameters for a low value m* of the
    scale-reduced functional; a negative m* turns into
    log B_cert = 2 log(2/|m*|), a valid bound for any profile, minimal or
    not.  A nonnegative m* reports "no certificate" rather than an error.
    "Certified" holds up to the panel rule's checked quadrature gap: m*
    comes from :func:`evaluate_GB`, whose panel doubling moved G by at most
    ``epsrel`` (1e-10) of kin/nu + nu pot, else AccuracyError.

    The Gaussian family is a single canonical shape (its width is the
    rescaling direction, already consumed by the field scan), so its
    certificate reproduces the closed form 18 pi nu^2/(3 nu^2 - 2)^2
    whenever nu^2 > 2/3.  The plateau family's m* is the best of
    PLATEAU_SWEEPS coordinate sweeps (bounded golden-section search in the
    half-width, then the ramp ratio), not the family's minimum: at nu = 0.85
    it is -0.144 after 3 sweeps and still falling after 10 (-0.184).  A line
    search that stops before it converges raises AccuracyError.
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
            x = _line_search(lambda lx: _g1(nu, 0, PlateauProfile(10.0**lx, rho * 10.0**lx)),
                             (-0.5, 6.5))
            rho = _line_search(lambda r: _g1(nu, 0, PlateauProfile(10.0**x, r * 10.0**x)),
                               (0.1, 24.0))
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
    Fixed seed gives bit-for-bit reproducible output.  ``samples`` may be
    any integral number (2.0 counts as 2); anything else raises ValueError.
    """
    if not samples % 1 == 0:  # false for nan and inf too
        raise ValueError(f"samples must be an integer, got {samples}")
    samples = int(samples)
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
