"""Independent oracles the tests compare the library against.

Each takes a different route from the library's one evaluation path:

- ``a_ell`` evaluates a_ell(z; B) point by point with adaptive ``quad`` of
  the defining integral in the scaled variable zeta = sqrt(B) z (up to the
  switch radius) and with the Gaussian-moment series beyond it; the library
  uses erfcx for ell = 0 and a Chebyshev fit of Gauss-Legendre panels.
- ``a_ell_direct`` integrates in the unscaled variable s, so it does not
  rely on the sqrt(B) scaling identity that ``scaling_check`` tests.
- ``y_of_z`` integrates a_0 by ``quad``, the forward direction of the map
  whose inverse the library tabulates as a Chebyshev fit of brentq roots.
- ``sturm_count`` is a pure-Python LDL^T sign count, independent of LAPACK
  bisection; ``convergence_study`` reports raw eigenvalues on n, 2n, 4n, ...
  points so that the h^2 order of the scheme can be observed.
- ``T_of_lambda`` is T(lambda) at a fixed lambda on the grids of
  ``groundstate._Grid``, Richardson-extrapolated and domain-doubled, where
  ``ground_state_lambda`` takes its level from the staggered Dirac matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad

from landaucrit import groundstate, sturm_liouville
from landaucrit import potentials as pot
from landaucrit.errors import TruncationError
from landaucrit.potentials import PotentialSpec, VariableMap
from landaucrit.sturm_liouville import EigenResult, SturmLiouvilleProblem

_QUAD_OPTS = dict(epsabs=1e-300, epsrel=1e-13, limit=400)


# ---------------------------------------------------------------------------
# a_ell(z; B) and the map y(z) by scalar quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialEvaluation:
    """One potential value with the evaluation regime that produced it."""

    z: float
    value: float
    regime: str  # "quadrature" or "asymptotic"


def a_scaled_quadrature(ell: int, zeta: float) -> float:
    """Adaptive quadrature of the defining integral in the scaled variable."""
    zeta = abs(zeta)
    log_norm = -ell * math.log(2.0) - math.lgamma(ell + 1)

    def integrand(t):
        if t == 0.0:
            return 0.0
        return math.exp(log_norm + (2 * ell + 1) * math.log(t) - 0.5 * t * t) / math.hypot(t, zeta)

    t_peak = math.sqrt(2 * ell + 1)
    t_max = t_peak + 40.0
    pts = sorted({p for p in (zeta, t_peak) if 0.0 < p < t_max})
    value, _ = quad(integrand, 0.0, t_max, points=pts or None, **_QUAD_OPTS)
    return value


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


def y_of_z(z: float) -> VariableMap:
    """Forward map y(z) = ∫_0^z a_0(t;1) dt with the weight mu at that point."""
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z}")
    az = abs(z)
    if az <= pot.SWITCH_RADIUS:
        y, _ = quad(pot._a0_scalar, 0.0, az, **_QUAD_OPTS)
    else:
        y = pot._log_offset() + math.log(az) + pot._tail_correction(1.0 / (az * az))
    a_val = pot._a0_scalar(az)
    y = math.copysign(y, z) if z != 0.0 else 0.0
    return VariableMap(
        z=z,
        y=y,
        mu_at_y=1.0 / a_val,
        log_abs_z=math.log(az) if az > 0.0 else -math.inf,
        log_mu=-math.log(a_val),
    )


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

def T_of_lambda(spec: PotentialSpec, lam: float, *, L: float | None = None,
                n: int | None = None, richardson: bool = True,
                stabilize_domain: bool = True) -> float:
    """Lowest eigenvalue T(lambda) of the linearized operator on
    ``groundstate._Grid``: Richardson over n -> 2n + 1, then the domain
    doubled at fixed h until T moves by less than 1e-9.

    At lambda = -1 the kinetic denominator reduces to nu a_ell, which is
    positive on any truncated domain, so the solve needs no regularization.
    """
    if not math.isfinite(lam) or lam < -1.0:
        raise ValueError(f"lambda must be finite and >= -1, got {lam}")
    if L is None or n is None:
        L0 = groundstate._default_domain(spec) if L is None else L
        L0, n0 = groundstate._clip_to_budget(L0, groundstate._default_spacing(spec))
        L = L0 if L is None else L
        n = n0 if n is None else n

    def on_grid(L, n):
        value = groundstate._Grid(spec, L, n).T(lam)
        if not richardson:
            return value
        return sturm_liouville.richardson_step(value, groundstate._Grid(spec, L, 2 * n + 1).T(lam))[0]

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
