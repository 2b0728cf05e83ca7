"""Calls into the package and the correctness checks on their outcomes.

Checks run after the timed passes, with no wrapper installed, so they add to
neither the times nor the trace counts.  Each call is checked against the
invariants the paper states and against reference values recorded from the
seed code (``reference/<workload>.json``, written by ``make_reference.py``),
whose tolerances come from the gap between the default grid and a refined
one.  A call that raises counts as failed; when it raises exactly what the
seed code raised there (a known defect) the run stays correct, so a later
fix shows as fewer failures rather than as a changed benchmark.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from landaucrit import critical_field, groundstate, potentials, trial_bounds

from workloads import ENTRY_MODULE, call_key

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_MODULES = {"critical_field": critical_field, "groundstate": groundstate,
            "trial_bounds": trial_bounds}


def invoke(entry: str, args: tuple):
    """Call one entry point through its module attribute, so wrappers apply."""
    module = _MODULES[ENTRY_MODULE[entry]]
    if entry == "ground_state_lambda":
        nu, B, ell = args
        return module.ground_state_lambda(potentials.PotentialSpec(nu=nu, B=B, ell=ell))
    return getattr(module, entry)(*args)


def values(entry: str, result) -> dict[str, float]:
    """The numbers of a result that are compared with the reference."""
    if entry in ("critical_field_schrodinger", "critical_field_direct"):
        return {"log_BL": result.log_BL}
    if entry == "sandwich":
        return {"lower_logB": result.lower_logB, "upper_logB": result.upper_logB}
    if entry == "ground_state_lambda":
        return {"lam": result.lam}
    if entry == "check_sqrt5_inequality":
        return {"worst": float(result)}
    return {"m_star": result.m_star}


def gaussian_closed_form_log_B(nu: float) -> float:
    """log of 18 pi nu^2/(3 nu^2 - 2)^2, the Gaussian certificate for nu^2 > 2/3."""
    return math.log(18.0 * math.pi * nu * nu / (3.0 * nu * nu - 2.0) ** 2)


def _invariants(entry: str, args: tuple, r, ref: dict) -> list[str]:
    if entry == "critical_field_schrodinger":
        lo, hi = r.e1_bracket
        d2 = args[0] ** 2
        return [] if lo <= d2 <= hi else [f"e1_bracket ({lo}, {hi}) misses delta^2 = {d2}"]
    if entry == "sandwich":
        out = []
        if not r.lower_logB <= r.upper_logB:
            out.append(f"sandwich inverted: {r.lower_logB} > {r.upper_logB}")
        if not math.log(r.analytic_lower) <= r.upper_logB:
            out.append(f"log analytic lower {math.log(r.analytic_lower)} > upper {r.upper_logB}")
        return out
    if entry == "ground_state_lambda":
        out = []
        if not -1.0 <= r.lam <= 1.0:
            out.append(f"lambda = {r.lam} outside [-1, 1]")
        if r.degenerate != (r.lam == -1.0):
            out.append(f"degenerate = {r.degenerate} but lambda = {r.lam}")
        return out
    if entry == "check_sqrt5_inequality":
        bound = -args[0] * math.sqrt(5.0)
        return [] if r >= bound else [f"worst ratio {r} below -nu sqrt5 = {bound}"]
    if (entry == "certify_critical_upper_bound" and args[1] == "gaussian"
            and 3.0 * args[0] ** 2 > 2.0):
        closed = gaussian_closed_form_log_B(args[0])
        if not r.certified or not abs(r.log_B_cert - closed) <= ref["closed_form_tol"]:
            return [f"gaussian log_B_cert {r.log_B_cert} != closed form {closed}"]
    return []


def check(entry: str, args: tuple, outcome, ref: dict) -> tuple[bool, list[str]]:
    """(failed, problems) of one call; a known seed defect fails with no problem."""
    if isinstance(outcome, Exception):
        name = type(outcome).__name__
        known = ref.get("seed_outcome") == name
        return True, [] if known else [f"raised {name}: {outcome}"]
    problems = _invariants(entry, args, outcome, ref)
    for name, got in values(entry, outcome).items():
        want, tol = ref["values"][name]
        if not abs(got - want) <= tol:
            problems.append(f"{name} = {got!r}, reference {want!r} +- {tol:.2e}")
    return bool(problems), problems


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json") as f:
        return json.load(f)


def verify(calls, outcomes_per_pass, reference: dict):
    """Check every outcome of every pass; returns (failed call count, problem lines)."""
    bad = [[False] * len(calls) for _ in outcomes_per_pass]
    problems = []
    refs = reference["calls"]
    for p, outcomes in enumerate(outcomes_per_pass):
        for i, ((entry, args), outcome) in enumerate(zip(calls, outcomes)):
            key = call_key(entry, args)
            try:
                bad[p][i], why = check(entry, args, outcome, refs[key])
            except Exception as exc:  # a result the checks cannot read is a failed call
                bad[p][i], why = True, [f"check raised {exc!r}"]
            problems += [f"{key}: {w}" for w in why]
    cross = reference.get("cross_route")
    if cross is not None:
        problems += _cross_route(calls, outcomes_per_pass, cross, bad)
    return sum(map(sum, bad)), problems


def _cross_route(calls, outcomes_per_pass, cross: dict, bad) -> list[str]:
    """Direct route, computed here, against every Schrodinger result at one delta."""
    key = call_key("critical_field_schrodinger", (cross["delta"],))
    idx = [i for i, c in enumerate(calls) if call_key(*c) == key]
    if not idx:
        return []
    i = idx[0]
    try:
        direct = critical_field.critical_field_direct(cross["delta"]).log_BL
    except Exception as exc:  # a failing check fails the calls it checks, it is no crash
        for row in bad:
            row[i] = True
        return [f"cross-route direct({cross['delta']}) raised {exc!r}"]
    problems = []
    for p, outcomes in enumerate(outcomes_per_pass):
        r = outcomes[i]
        if not isinstance(r, Exception) and not abs(r.log_BL - direct) <= cross["tol"]:
            bad[p][i] = True
            problems.append(f"{key}: log_BL {r.log_BL!r} vs direct {direct!r} "
                            f"+- {cross['tol']:.2e}")
    return problems
