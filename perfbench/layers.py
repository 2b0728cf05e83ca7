"""Where the traced run wraps the package, and the per-layer metrics it reports.

Layers are the package modules.  Each wrap point is the module attribute a
layer calls through, so the span it records sits on that layer boundary:
``critical_field.log_mu_of_y`` is the potential evaluation the Schrodinger
route asks for, ``groundstate.a_ell_grid`` the one the fixed point asks for.
"""

from __future__ import annotations

import numpy as np

from landaucrit import critical_field, groundstate, sturm_liouville, trial_bounds

from workloads import ENTRY_MODULE

MODULES = ("potentials", "sturm_liouville", "critical_field", "groundstate", "trial_bounds")


def _size(i):
    return lambda args: int(np.size(args[i]))


#: (module, attribute, span name, work size of the positional arguments)
WRAP_POINTS = (
    (sturm_liouville, "eigh_tridiagonal", "sturm_liouville.eigh_tridiagonal", _size(0)),
    (sturm_liouville, "build_tridiagonal", "sturm_liouville.build_tridiagonal", None),
    (sturm_liouville, "lowest_eigenvalue", "sturm_liouville.lowest_eigenvalue", None),
    (critical_field, "E1_of_kappa", "critical_field.E1_of_kappa", None),
    (critical_field, "bracket_E1", "critical_field.bracket_E1", None),
    (critical_field, "critical_field_schrodinger", "critical_field.critical_field_schrodinger", None),
    (critical_field, "log_mu_of_y", "potentials.log_mu_of_y", _size(0)),
    (critical_field, "a0_scaled", "potentials.a0_scaled", _size(0)),
    (groundstate, "a_ell_grid", "potentials.a_ell_grid", _size(1)),
    (trial_bounds, "quad", "trial_bounds.quad", None),
    (trial_bounds, "a_scaled_vec", "potentials.a_scaled_vec", _size(1)),
    (trial_bounds, "w_scaled_vec", "trial_bounds.w_scaled_vec", _size(1)),
    (trial_bounds, "evaluate_GB", "trial_bounds.evaluate_GB", None),
)


def root_name(entry: str) -> str:
    """Span name of the benchmark's own span around one entry-point call."""
    return f"call:{ENTRY_MODULE[entry]}.{entry}"


EIGH = "sturm_liouville.eigh_tridiagonal"
SCHRODINGER = "critical_field.critical_field_schrodinger"
GROUND = root_name("ground_state_lambda")

#: (metric, span name, field); field is calls, size, max_size, s or self_s
SPAN_METRICS = (
    ("potentials.log_mu_of_y.calls", "potentials.log_mu_of_y", "calls"),
    ("potentials.log_mu_of_y.points", "potentials.log_mu_of_y", "size"),
    ("potentials.log_mu_of_y.s", "potentials.log_mu_of_y", "s"),
    ("potentials.a_scaled_vec.calls", "potentials.a_scaled_vec", "calls"),
    ("potentials.a_scaled_vec.points", "potentials.a_scaled_vec", "size"),
    ("potentials.a_scaled_vec.s", "potentials.a_scaled_vec", "s"),
    ("potentials.a_ell_grid.calls", "potentials.a_ell_grid", "calls"),
    ("potentials.a_ell_grid.points", "potentials.a_ell_grid", "size"),
    ("potentials.a_ell_grid.s", "potentials.a_ell_grid", "s"),
    ("potentials.a0_scaled.calls", "potentials.a0_scaled", "calls"),
    ("potentials.a0_scaled.points", "potentials.a0_scaled", "size"),
    ("potentials.a0_scaled.s", "potentials.a0_scaled", "s"),
    ("sturm_liouville.eigensolves", EIGH, "calls"),
    ("sturm_liouville.eigensolve_rows", EIGH, "size"),
    ("sturm_liouville.eigensolve_rows.max", EIGH, "max_size"),
    ("sturm_liouville.eigensolve_s", EIGH, "s"),
    ("sturm_liouville.build_tridiagonal.calls", "sturm_liouville.build_tridiagonal", "calls"),
    ("sturm_liouville.build_tridiagonal.s", "sturm_liouville.build_tridiagonal", "s"),
    ("sturm_liouville.lowest_eigenvalue.calls", "sturm_liouville.lowest_eigenvalue", "calls"),
    ("sturm_liouville.lowest_eigenvalue.s", "sturm_liouville.lowest_eigenvalue", "s"),
    ("sturm_liouville.lowest_eigenvalue.self_s", "sturm_liouville.lowest_eigenvalue", "self_s"),
    ("critical_field.E1_of_kappa.calls", "critical_field.E1_of_kappa", "calls"),
    ("critical_field.E1_of_kappa.s", "critical_field.E1_of_kappa", "s"),
    ("critical_field.bracket_E1.s", "critical_field.bracket_E1", "s"),
    ("critical_field.critical_field_schrodinger.self_s", SCHRODINGER, "self_s"),
    ("critical_field.critical_field_direct.s", root_name("critical_field_direct"), "s"),
    ("groundstate.ground_state_lambda.s", GROUND, "s"),
    ("groundstate.ground_state_lambda.self_s", GROUND, "self_s"),
    ("trial_bounds.quad.calls", "trial_bounds.quad", "calls"),
    ("trial_bounds.quad.self_s", "trial_bounds.quad", "self_s"),
    ("trial_bounds.evaluate_GB.calls", "trial_bounds.evaluate_GB", "calls"),
    ("trial_bounds.evaluate_GB.s", "trial_bounds.evaluate_GB", "s"),
    ("trial_bounds.w_scaled_vec.s", "trial_bounds.w_scaled_vec", "s"),
)

#: metrics computed from whole span trees or from results: (metric, unit, span
#: names they need wrapped)
DERIVED = (
    ("sturm_liouville.truncation_errors", "count", ()),
    ("critical_field.eigensolves_per_call", "count", (EIGH, SCHRODINGER)),
    ("groundstate.T_evals", "count", ()),
    ("groundstate.eigensolves_per_call", "count", (EIGH,)),
    ("groundstate.degenerate", "count", ()),
    ("trial_bounds.integrand_points", "count",
     ("trial_bounds.quad", "potentials.a_scaled_vec", "trial_bounds.w_scaled_vec")),
) + tuple((f"{m}.self_s", "s", ()) for m in MODULES) + (("trace.overhead_s", "s", ()),)

_UNITS = {"calls": "count", "size": "count", "max_size": "count", "s": "s", "self_s": "s"}


def units() -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    out = {name: _UNITS[field] for name, _, field in SPAN_METRICS}
    out.update((name, unit) for name, unit, _ in DERIVED)
    return out


def _module_of(span_name: str) -> str:
    return span_name.removeprefix("call:").split(".")[0]


def _descendants_of(spans, names):
    """Whether each span lies strictly below a span named in ``names``."""
    below = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s.parent
        below[i] = p >= 0 and (below[p] or spans[p].name in names)
    return below


def layer_metrics(spans, selfs, missing, passes, results, overhead_s):
    """Per-pass per-layer metrics of ``passes`` traced passes.

    ``results`` are the entry-point outcomes of those passes, as
    ``(entry, result-or-exception)``.  A metric whose wrap point is missing
    is reported as None, never as 0.
    """
    agg: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, selfs):
        a = agg.setdefault(s.name, dict(calls=0, size=0, max_size=0, s=0.0, self_s=0.0))
        a["calls"] += 1
        a["size"] += s.size
        a["max_size"] = max(a["max_size"], s.size)
        a["s"] += s.end - s.start
        a["self_s"] += own

    def per_pass(x):
        return x / passes

    values: dict[str, float | None] = {}
    for name, span, field in SPAN_METRICS:
        if span in missing:
            values[name] = None
        else:
            v = agg.get(span, {}).get(field, 0)
            values[name] = v if field == "max_size" else per_pass(v)

    below_schr = _descendants_of(spans, {SCHRODINGER})
    below_ground = _descendants_of(spans, {GROUND})
    eigh = [i for i, s in enumerate(spans) if s.name == EIGH]
    n_schr = agg.get(SCHRODINGER, {}).get("calls", 0)
    n_ground = agg.get(GROUND, {}).get("calls", 0)
    raised_below = {spans[i].parent for i, s in enumerate(spans)
                    if s.error == "TruncationError" and s.parent >= 0}
    ground = [r for e, r in results if e == "ground_state_lambda" and hasattr(r, "iterations")]
    quad_kids = [s for s in spans
                 if s.name in ("potentials.a_scaled_vec", "trial_bounds.w_scaled_vec")
                 and s.parent >= 0 and spans[s.parent].name == "trial_bounds.quad"]
    derived = {
        "sturm_liouville.truncation_errors": per_pass(sum(
            1 for i, s in enumerate(spans)
            if s.error == "TruncationError" and i not in raised_below)),
        "critical_field.eigensolves_per_call":
            sum(below_schr[i] for i in eigh) / n_schr if n_schr else 0.0,
        "groundstate.T_evals": per_pass(sum(r.iterations for r in ground)),
        "groundstate.eigensolves_per_call":
            sum(below_ground[i] for i in eigh) / n_ground if n_ground else 0.0,
        "groundstate.degenerate": per_pass(sum(r.degenerate for r in ground)),
        "trial_bounds.integrand_points": per_pass(len(quad_kids)),
        "trace.overhead_s": overhead_s,
    }
    for m in MODULES:
        derived[f"{m}.self_s"] = per_pass(sum(
            own for s, own in zip(spans, selfs) if _module_of(s.name) == m))
    for name, _, needs in DERIVED:
        values[name] = None if any(n in missing for n in needs) else derived[name]
    return values
