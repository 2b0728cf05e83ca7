"""Nonlinear fixed point for the lowest level of the effective 1D theory.

For fixed lambda the Rayleigh functional is the quadratic form of the linear
operator -(p f')' + q f with p = 1/(1 + lambda + nu a_ell) and
q = 1 - nu a_ell; its lowest Dirichlet eigenvalue T(lambda) is nonincreasing
in lambda, so Phi(lambda) = T(lambda) - lambda has slope <= -1 and a unique
root in (-1, 1] whenever Phi(-1) > 0.  If Phi(-1) <= 0 the level has reached
the lower continuum edge and the solve reports the degenerate value -1.

The root is found by safeguarded Newton steps (sturm_liouville.newton_root)
with the exact slope dT/dlambda = -sum p^2 (f')^2 of the same eigen-solve
(Hellmann-Feynman, dp/dlambda = -p^2).  On the coarse grid Newton starts at
-1, where Phi(-1) also decides degeneracy, and the slope bound keeps it
inside [-1, -1 + Phi(-1)]; on the fine grid it starts at the coarse root.
Grid control is Richardson extrapolation in n at fixed h-ratio plus domain
doubling in L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

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

# Stopping rules of ground_state_lambda: the Newton xtol is RESIDUAL_TOL / 4;
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

    def T(self, lam: float) -> tuple[float, float]:
        """(T(lambda), dT/dlambda), the slope -sum p_mid^2 (f_{i+1} - f_i)^2 / h^2
        of the unit eigenvector f with f_0 = f_{n+1} = 0 (Hellmann-Feynman)."""
        self.evaluations += 1
        p_mid = 1.0 / (1.0 + lam + self.spec.nu * self.a_mids)
        value, f = sturm_liouville.lowest_pair_of_tridiagonal(
            *sturm_liouville.tridiagonal(p_mid, self.q_nodes, self.h))
        df = np.diff(f, prepend=0.0, append=0.0)
        return value, -float(np.sum((p_mid * df) ** 2)) / self.h**2


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


def _root_on_grid(grid: _Grid, guess: float | None = None) -> tuple[float | None, float]:
    """Root of Phi on one grid and |Phi| at the last evaluation, or
    (None, max(Phi(-1), 0)) if the grid is degenerate.

    Without ``guess``, Newton starts from Phi(-1): Phi(-1) <= DEGENERACY_TOL
    is the degenerate short-circuit, and the slope bound puts the root in
    [-1, -1 + Phi(-1)].  With one (the coarse root, on the fine grid), Newton
    starts there inside [-1, 1].  Raises BracketError if the root lies outside
    the bracket (callers may enlarge the domain first).
    """
    def phi(lam: float) -> tuple[float, float]:
        t, dt = grid.T(lam)
        return t - lam, dt - 1.0

    if guess is None:
        start = phi(-1.0)
        if start[0] <= DEGENERACY_TOL:
            return None, max(start[0], 0.0)
        x0, hi = -1.0, min(1.0, -1.0 + start[0] * (1.0 + 1e-12) + 1e-13)
    else:
        start, x0, hi = None, guess, 1.0
    root, residual, _ = sturm_liouville.newton_root(phi, x0, -1.0, hi,
                                                    xtol=0.25 * RESIDUAL_TOL, start=start)
    return root, abs(residual)


def ground_state_lambda(spec: PotentialSpec, *, L: float | None = None,
                        n: int | None = None) -> FixedPointResult:
    """Ground state lambda_1(nu, B) of the lowest-Landau effective theory.

    Safeguarded Newton on Phi(lambda) = T(lambda) - lambda with the
    Hellmann-Feynman slope, on grids of n and 2n + 1 points, the root
    Richardson-extrapolated over the two, the domain doubled until the root
    moves by less than DOMAIN_TOL.  A BracketError on either grid doubles the
    domain too.  Declares the degenerate lambda = -1 outcome when
    T(-1) + 1 <= DEGENERACY_TOL.  ``residual`` is |Phi| at the last Newton
    evaluation on the fine grid.
    """
    h = _default_spacing(spec)
    if L is not None and n is not None:
        cur_L, cur_n = float(L), int(n)
    else:
        cur_L, cur_n = _clip_to_budget(L if L is not None else _default_domain(spec), h)

    prev_root: float | None = None
    total_evals = 0
    for attempt in range(MAX_DOUBLINGS + 1):
        grids = [_Grid(spec, cur_L, cur_n)]
        try:
            root_n, residual = _root_on_grid(grids[0])
            if root_n is not None:
                # n -> 2n+1 halves h exactly, keeping the refinement in one h^2 family
                grids.append(_Grid(spec, cur_L, 2 * cur_n + 1))
                root_fine, residual = _root_on_grid(grids[1], root_n)
        except BracketError:
            if attempt == MAX_DOUBLINGS:
                raise
            # n -> 2n+1 with L doubled keeps h fixed and z = 0 on a node
            cur_L, cur_n = 2.0 * cur_L, 2 * cur_n + 1
            continue
        finally:
            total_evals += sum(g.evaluations for g in grids)

        if root_n is None:
            # short-circuit: deeper in the degenerate regime for larger L
            # (T(-1) only decreases with the domain), so -1 is final.
            return FixedPointResult(
                lam=-1.0, iterations=total_evals, residual=residual,
                degenerate=True, L=cur_L, n=cur_n,
            )

        root, _ = sturm_liouville.richardson_step(root_n, root_fine)
        tail_L = C_TAIL / max(1.0 - root, 1e-3)
        need_wider = tail_L > cur_L
        if prev_root is not None and abs(root - prev_root) < DOMAIN_TOL and not need_wider:
            return FixedPointResult(
                lam=float(np.clip(root, -1.0, 1.0)), iterations=total_evals,
                residual=residual, degenerate=False, L=cur_L, n=2 * cur_n + 1,
            )
        prev_root = root
        cur_L = max(2.0 * cur_L, min(tail_L, 8.0 * cur_L))
        cur_n = sturm_liouville.odd_points(cur_L, grids[0].h)
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
