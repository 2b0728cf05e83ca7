#!/usr/bin/env python3
"""Record the reference values the benchmark checks its calls against.

    python3 perfbench/make_reference.py --workload NAME

For every point of the workload's input lattice this computes the result on
the package's default grid (the value a run must reproduce) and the same
quantity on a refined grid or with a tighter quadrature tolerance.  The
tolerance of each value is SAFETY times the gap between the two, and never
below FLOOR relative, the agreement the roadmap asks of a faster trial-state
quadrature.
A faithful change of algorithm moves a value by about the discretization
error, which the tolerance admits; a broken one moves it further.  Calls
that raise on the default grid record the exception as ``seed_outcome``.
The file is ``reference/NAME.json``.  Run it on the code the references
should describe; it takes minutes per workload.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import setup_probe  # noqa: E402
import workloads  # noqa: E402

SAFETY = 10.0
FLOOR = 1e-10

#: delta at which the two critical-field routes are compared live
CROSS_DELTA = 0.7


def _log_BL_of_m(m: float) -> float:
    return 2.0 * (math.log(2.0) - math.log(-m))


def refined(entry: str, args: tuple, result) -> dict[str, float]:
    """The values of ``checks.values`` on a finer grid or a tighter quadrature."""
    from landaucrit import critical_field as cf, groundstate as gs, trial_bounds as tb
    from landaucrit.potentials import PotentialSpec

    if entry == "critical_field_schrodinger":
        return {"log_BL": cf.critical_field_schrodinger(args[0], h=0.01).log_BL}
    if entry == "sandwich":
        r = cf.sandwich(args[0], h=0.01)
        return {"lower_logB": r.lower_logB, "upper_logB": r.upper_logB}
    if entry == "critical_field_direct":
        return {"log_BL": _log_BL_of_m(cf.m_delta(args[0], h=0.025))}
    if entry == "ground_state_lambda":
        spec = PotentialSpec(*args)
        # start from the default first grid with h halved
        L, n = gs._clip_to_budget(gs._default_domain(spec), gs._default_spacing(spec))
        return {"lam": gs.ground_state_lambda(spec, L=L, n=2 * n + 1).lam}
    if entry == "check_sqrt5_inequality":
        import numpy as np
        nu, samples, seed = args
        # the draws of check_sqrt5_inequality; the minimizing sample (the
        # ratios differ by O(1), so it stays the minimizer) again with epsrel 1e-12
        rng = np.random.default_rng(seed)
        trials = []
        for _ in range(samples):
            ell = int(rng.integers(0, 4))
            profile = tb.HermiteBasisProfile(rng.standard_normal(8), scale=2.0)
            trials.append(tb.TrialState(ell=ell, profile=profile))

        def ratio(trial, epsrel):
            return tb.evaluate_GB(nu, 1.0, trial, epsrel=epsrel).G_B / trial.profile.norm_sq()

        worst = min(trials, key=lambda t: ratio(t, 1e-9))
        return {"worst": ratio(worst, 1e-12)}
    nu, family = args
    profile = (tb.GaussianProfile(result.params["width"]) if family == "gaussian"
               else tb.PlateauProfile(result.params["half_width"], result.params["ramp"]))
    ev = tb.evaluate_GB(nu, 1.0, tb.TrialState(ell=0, profile=profile), epsrel=1e-12)
    return {"m_star": ev.G_B / profile.norm_sq()}


def _tol(default: float, fine: float) -> float:
    return max(SAFETY * abs(default - fine), FLOOR * max(abs(default), 1.0))


def reference_of(entry: str, args: tuple) -> dict:
    import checks

    t0 = time.perf_counter()
    try:
        result = checks.invoke(entry, args)
    except Exception as exc:  # recorded as the seed outcome of this call
        if entry != "critical_field_direct":
            raise
        # the direct route's reference is the Schrodinger route at the same delta
        ref = reference_of("critical_field_schrodinger", args)
        ref["seed_outcome"] = type(exc).__name__
        return ref
    spent = time.perf_counter() - t0
    default = checks.values(entry, result)
    fine = refined(entry, args, result)
    ref = {"seed_outcome": "ok",
           "values": {k: [default[k], _tol(default[k], fine[k])] for k in default},
           "refined": fine}
    if entry == "certify_critical_upper_bound" and args[1] == "gaussian":
        gap = abs(result.log_B_cert - checks.gaussian_closed_form_log_B(args[0]))
        ref["closed_form_tol"] = max(SAFETY * gap, FLOOR)
    print(f"{workloads.call_key(entry, args):50s} {spent:8.3f} s", file=sys.stderr, flush=True)
    return ref


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    args = p.parse_args(argv)
    sys.path.insert(0, str(setup_probe.SRC))
    setup_probe.setup()
    import checks

    calls = {workloads.call_key(e, a): reference_of(e, a)
             for e, a in workloads.lattice(args.workload)}
    out = {"about": "seed-code values on the default grid as [value, tolerance]; "
                    "written by make_reference.py", "calls": calls}
    if args.workload == "schrodinger_sweep":
        schr = calls[workloads.call_key("critical_field_schrodinger", (CROSS_DELTA,))]
        direct = reference_of("critical_field_direct", (CROSS_DELTA,))
        (s, s_tol), (d, d_tol) = schr["values"]["log_BL"], direct["values"]["log_BL"]
        out["cross_route"] = {"delta": CROSS_DELTA, "tol": max(s_tol + d_tol, SAFETY * abs(s - d)),
                              "seed_gap": abs(s - d)}
    path = checks.REFERENCE_DIR / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
