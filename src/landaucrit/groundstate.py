"""Nonlinear fixed point for the lowest level of the effective 1D theory.

For fixed lambda the Rayleigh functional is the quadratic form of the linear
operator -(p f')' + q f with p = 1/(1 + lambda + nu a_ell) and
q = 1 - nu a_ell; its lowest Dirichlet eigenvalue T(lambda) is nonincreasing
in lambda, so Phi(lambda) = T(lambda) - lambda has slope <= -1 and a unique
root in (-1, 1] whenever Phi(-1) > 0.  If Phi(-1) <= 0 the level has reached
the lower continuum edge and the solve reports the degenerate value -1.

Bracketing exploits the slope bound: the root always lies inside
[-1, -1 + Phi(-1)], which keeps the near-critical search cheap.  Grid control
is Richardson extrapolation in n at fixed h-ratio plus domain doubling in L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from . import sturm_liouville
from .errors import BracketError, TruncationError
from .potentials import PotentialSpec, a_ell_grid

__all__ = ["FixedPointResult", "T_of_lambda", "ground_state_lambda", "ground_state_per_ell"]

# Domain rule L = max(C_FIELD/sqrt(B), C_COULOMB/nu, C_TAIL/(1 - lambda_est)),
# then doubled until the root is stable.
C_FIELD = 20.0
C_COULOMB = 30.0
C_TAIL = 10.0

#: grid spacing h = H_SCALE / sqrt(max(1, B)); resolves the field-scale well.
H_SCALE = 0.05

#: soft cap on interior points for automatically chosen grids; odd, like
#: every grid here.
N_SOFT = 1_500_001

# Stopping rules of ground_state_lambda: brentq xtol is RESIDUAL_TOL / 4;
# Phi(-1) <= DEGENERACY_TOL is the degenerate level lambda = -1; the domain
# grows until the extrapolated root moves by less than DOMAIN_TOL, at most
# MAX_DOUBLINGS times before TruncationError.
RESIDUAL_TOL = 1e-10
DEGENERACY_TOL = 1e-9
DOMAIN_TOL = 1e-7
MAX_DOUBLINGS = 6


@dataclass(frozen=True)
class FixedPointResult:
    """Converged lowest level lambda_1(nu, B) with solve diagnostics."""

    lam: float
    iterations: int
    residual: float
    degenerate: bool
    L: float
    n: int

    @property
    def grid(self) -> tuple[float, int]:
        return (self.L, self.n)


def _default_domain(spec: PotentialSpec) -> float:
    return max(C_FIELD / math.sqrt(spec.B), C_COULOMB / spec.nu, 10.0)


def _default_spacing(spec: PotentialSpec) -> float:
    return H_SCALE / math.sqrt(max(1.0, spec.B))


def _clip_to_budget(L: float, h: float) -> tuple[float, int]:
    n = sturm_liouville.odd_points(L, h)
    if n >= N_SOFT:
        n = N_SOFT
        L = 0.5 * h * (n + 1)
    return L, n


class _Grid:
    """Potential samples on one (L, n) grid, reused across lambda iterations."""

    def __init__(self, spec: PotentialSpec, L: float, n: int):
        self.spec = spec
        self.h, nodes, mids = sturm_liouville.grid_nodes(L, n)
        self.a_mids = a_ell_grid(spec, mids)
        self.q_nodes = 1.0 - spec.nu * a_ell_grid(spec, nodes)
        self.evaluations = 0

    def T(self, lam: float) -> float:
        self.evaluations += 1
        p_mid = 1.0 / (1.0 + lam + self.spec.nu * self.a_mids)
        return sturm_liouville.lowest_of_tridiagonal(
            *sturm_liouville.tridiagonal(p_mid, self.q_nodes, self.h))


def T_of_lambda(spec: PotentialSpec, lam: float, *, L: float | None = None,
                n: int | None = None, richardson: bool = True,
                stabilize_domain: bool = True) -> float:
    """Lowest eigenvalue T(lambda) of the linearized operator.

    At lambda = -1 the kinetic denominator reduces to nu a_ell, which is
    positive on any truncated domain, so the solve needs no regularization.
    """
    if not math.isfinite(lam) or lam < -1.0:
        raise ValueError(f"lambda must be finite and >= -1, got {lam}")
    if L is None or n is None:
        L0 = _default_domain(spec) if L is None else L
        L0, n0 = _clip_to_budget(L0, _default_spacing(spec))
        L = L0 if L is None else L
        n = n0 if n is None else n
    nu = spec.nu
    problem = sturm_liouville.SturmLiouvilleProblem(
        p=lambda z: 1.0 / (1.0 + lam + nu * a_ell_grid(spec, z)),
        q=lambda z: 1.0 - nu * a_ell_grid(spec, z),
        L=L,
        n=n,
    )
    return sturm_liouville.lowest_eigenvalue(
        problem, richardson=richardson, stabilize_domain=stabilize_domain,
        domain_tol=1e-9,
    ).value


def _root_on_grid(grid: _Grid, bracket: tuple[float, float] | None = None):
    """Root of Phi on one grid, or None if the grid is degenerate there.

    Returns (lam or None, phi_at_minus_one).  Raises BracketError if no sign
    change exists up to lambda = 1 (callers may enlarge the domain first).
    """
    phi = lambda lam: grid.T(lam) - lam
    phi_m1 = phi(-1.0)
    if phi_m1 <= DEGENERACY_TOL:
        return None, phi_m1
    if bracket is not None:
        lo, hi = bracket
        lo, hi = max(lo, -1.0), min(hi, 1.0)
        width = hi - lo
        while phi(lo) < 0.0 and lo > -1.0:
            lo = max(-1.0, lo - width)
        while phi(hi) > 0.0 and hi < 1.0:
            hi = min(1.0, hi + width)
    else:
        lo = -1.0
        hi = min(1.0, -1.0 + phi_m1 * (1.0 + 1e-12) + 1e-13)
    if phi(hi) > 0.0:
        raise BracketError(
            f"Phi has no sign change in [-1, {hi}]; T(1) > 1 indicates an "
            "under-resolved domain"
        )
    root = brentq(phi, lo, hi, xtol=0.25 * RESIDUAL_TOL, rtol=8.9e-16)
    return float(root), phi_m1


def ground_state_lambda(spec: PotentialSpec, *, L: float | None = None,
                        n: int | None = None) -> FixedPointResult:
    """Ground state lambda_1(nu, B) of the lowest-Landau effective theory.

    Bisection-with-interpolation on Phi(lambda) = T(lambda) - lambda, root
    Richardson-extrapolated over n, domain doubled until the root moves by
    less than DOMAIN_TOL.  Declares the degenerate lambda = -1 outcome
    when T(-1) + 1 <= DEGENERACY_TOL.
    """
    h = _default_spacing(spec)
    if L is not None and n is not None:
        cur_L, cur_n = float(L), int(n)
    else:
        cur_L, cur_n = _clip_to_budget(L if L is not None else _default_domain(spec), h)

    prev_root: float | None = None
    total_evals = 0
    for attempt in range(MAX_DOUBLINGS + 1):
        grid = _Grid(spec, cur_L, cur_n)
        try:
            root_n, phi_m1 = _root_on_grid(grid)
        except BracketError:
            if attempt == MAX_DOUBLINGS:
                raise
            total_evals += grid.evaluations
            # n -> 2n+1 with L doubled keeps h fixed and z = 0 on a node
            cur_L, cur_n = 2.0 * cur_L, 2 * cur_n + 1
            continue

        if root_n is None:
            # short-circuit: deeper in the degenerate regime for larger L
            # (T(-1) only decreases with the domain), so -1 is final.
            total_evals += grid.evaluations
            return FixedPointResult(
                lam=-1.0, iterations=total_evals, residual=max(phi_m1, 0.0),
                degenerate=True, L=cur_L, n=cur_n,
            )

        # n -> 2n+1 halves h exactly, keeping the refinement in one h^2 family
        n_fine = 2 * cur_n + 1
        fine = _Grid(spec, cur_L, n_fine)
        width = max(1e-4, 8.0 * abs(root_n - (prev_root if prev_root is not None else root_n)))
        root_fine, _ = _root_on_grid(fine, bracket=(root_n - width, root_n + width))
        total_evals += grid.evaluations + fine.evaluations
        if root_fine is None:
            return FixedPointResult(
                lam=-1.0, iterations=total_evals, residual=0.0,
                degenerate=True, L=cur_L, n=n_fine,
            )
        root, _ = sturm_liouville.richardson_step(root_n, root_fine)

        tail_L = C_TAIL / max(1.0 - root, 1e-3)
        need_wider = tail_L > cur_L
        if prev_root is not None and abs(root - prev_root) < DOMAIN_TOL and not need_wider:
            residual = abs(fine.T(root_fine) - root_fine)
            total_evals += 1
            return FixedPointResult(
                lam=float(np.clip(root, -1.0, 1.0)), iterations=total_evals,
                residual=residual, degenerate=False, L=cur_L, n=n_fine,
            )
        prev_root = root
        cur_L = max(2.0 * cur_L, min(tail_L, 8.0 * cur_L))
        cur_n = sturm_liouville.odd_points(cur_L, grid.h)
        if cur_n > sturm_liouville.MAX_GRID_POINTS:
            raise TruncationError(
                f"ground-state domain grew past the grid cap (n={cur_n})",
                last_values=(prev_root, root),
            )

    raise TruncationError(
        f"ground-state root did not stabilize within {MAX_DOUBLINGS} domain doublings",
        last_values=(prev_root, root),
    )


def ground_state_per_ell(spec: PotentialSpec,
                         ells: Sequence[int] = (0, 1, 2)) -> list[FixedPointResult]:
    """Ground state per Landau index at fixed (nu, B); ell = 0 is the minimum."""
    return [ground_state_lambda(replace(spec, ell=int(ell))) for ell in ells]
