"""Seeded, stratified inputs for the three benchmark workloads.

Every workload is a fixed list of strata.  Each stratum has a small lattice
of inputs, and the seed picks from every lattice the same number of points,
so one pass costs about the same for every seed while the inputs still vary.
Only the drawn inputs reach the program; this module imports nothing from it.

A call is ``(entry, args)``: ``entry`` names a public function of the
``landaucrit`` modules, ``args`` are plain numbers or strings.
"""

from __future__ import annotations

import random

#: package module of each entry point the workloads call
ENTRY_MODULE = {
    "critical_field_schrodinger": "critical_field",
    "sandwich": "critical_field",
    "critical_field_direct": "critical_field",
    "ground_state_lambda": "groundstate",
    "check_sqrt5_inequality": "trial_bounds",
    "certify_critical_upper_bound": "trial_bounds",
}

#: samples per ``check_sqrt5_inequality`` call; few, so that a pass is short
#: and a run repeats it often
SQRT5_SAMPLES = 2

#: numpy seeds of the two ``check_sqrt5_inequality`` strata.  Their samples
#: draw the Landau indices 0, 1 and 2, 3, and take the same number of
#: integrand points.  The integrands do not depend on nu, so a call costs the
#: same for every nu the seed draws.
SQRT5_SEEDS = (48, 46)

#: advertised lower edge of the direct route at the seed code; kept as a
#: number so that the input stays the same if the constant changes
DELTA_MIN_DIRECT = 0.15

# (entry, lattice of argument tuples, points drawn per pass).  Within a
# stratum the points do the same work to within a few percent (summed rows
# of the eigen-solves, or integrand points), measured on the seed code;
# neighbouring points can differ by 30% through a brentq iteration count or
# a domain doubling, which is why the lattices are not regular grids.
_SCHRODINGER = (
    ("critical_field_schrodinger", [(0.01,)], 1),
    ("critical_field_schrodinger", [(0.15,), (0.16,)], 1),
    ("critical_field_schrodinger", [(0.31,), (0.33,), (0.34,), (0.35,)], 1),
    ("critical_field_schrodinger", [(0.7,)], 1),
    ("sandwich", [(0.0425,), (0.045,), (0.0475,)], 1),
)

_ZSPACE = (
    ("ground_state_lambda", [(0.2, 0.2, 0), (0.2, 0.4, 0), (0.2, 0.4, 1)], 2),  # weak field
    ("ground_state_lambda", [(0.3, 2.0, ell) for ell in range(4)], 2),  # moderate field
    ("ground_state_lambda", [(0.65, 50.0, ell) for ell in range(4)], 2),  # lambda to -0.58
    # past the critical field: degenerate, lambda = -1
    ("ground_state_lambda", [(0.85, 1e4, 0), (0.9, 1e4, 0)], 1),
    ("ground_state_lambda", [(0.65, 200.0, 0), (0.75, 100.0, 0), (0.75, 200.0, 0),
                             (0.75, 200.0, 1)], 1),
    ("critical_field_direct", [(DELTA_MIN_DIRECT,)], 1),
    ("critical_field_direct", [(0.3,)], 1),
    ("critical_field_direct", [(0.52,), (0.54,), (0.56,)], 1),
    ("critical_field_direct", [(0.7,), (0.75,), (0.8,)], 1),
)

_TRIAL = (
    ("check_sqrt5_inequality", [(nu, SQRT5_SAMPLES, SQRT5_SEEDS[0]) for nu in (0.3, 0.35, 0.4)], 1),
    ("check_sqrt5_inequality", [(nu, SQRT5_SAMPLES, SQRT5_SEEDS[1]) for nu in (0.5, 0.55, 0.6)], 1),
    ("certify_critical_upper_bound", [(nu, "gaussian") for nu in (0.85, 0.9, 0.95)], 1),
    ("certify_critical_upper_bound", [(nu, "plateau") for nu in (0.85, 0.875, 0.9)], 2),
)

WORKLOADS = {
    "schrodinger_sweep": _SCHRODINGER,
    "zspace_scan": _ZSPACE,
    "trial_certificates": _TRIAL,
}

#: workloads whose calls run in the interpreter, not in LAPACK; run.py times
#: them against the interpreter-bound ``calibrate.kernel``
CALIBRATED = frozenset({"trial_certificates"})


def call_key(entry: str, args: tuple) -> str:
    """Stable text name of one call, used to look up its reference values."""
    return f"{entry}({', '.join(repr(a) for a in args)})"


def generate(workload: str, seed: int) -> list[tuple[str, tuple]]:
    """The calls of one pass, in stratum order; same seed, same calls."""
    rng = random.Random(f"{workload}:{seed}")
    calls = []
    for entry, lattice, k in WORKLOADS[workload]:
        calls.extend((entry, args) for args in rng.sample(lattice, k))
    return calls


def lattice(workload: str) -> list[tuple[str, tuple]]:
    """Every call the generator can emit for a workload."""
    return [(entry, args) for entry, points, _ in WORKLOADS[workload] for args in points]
