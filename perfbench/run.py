#!/usr/bin/env python3
"""Benchmark of the landaucrit package: seeded workloads, closed loop, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of ``workloads.WORKLOADS``; ``all`` runs each in turn, each in
its own process.  The package is imported from ``src/`` of the checkout this
file sits in; nothing is installed.

A run times the set-up five times (here and in four fresh interpreters, one
after the other), then repeats whole passes over the seeded calls, one call
at a time, until the next pass would end after ``--seconds``.  There is at
least one pass; with ``--trace 1`` untraced and traced passes alternate and
there is at least one of each.  Outcomes are checked after the passes.  Each
metric is printed on its own line with its unit and sample count, and the
last line is the JSON result.  Spans of a traced run go to ``.bench_out/``.

A call's time is the median over the run's passes, and ``wall_s`` is the
sum of those.  The calls of a workload in ``workloads.CALIBRATED`` are timed
against ``calibrate.kernel``, run before each call and after the last: a
call's time in a pass is its seconds times ``calibrate.REFERENCE_S`` over the
kernel's mean time on both sides of the call, its time at a fixed host speed.
"""

import os

# one thread in every native pool, before numpy loads here or in a child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import setup_probe  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: set-up samples taken in fresh interpreters, besides the one in this process
CHILD_SETUPS = 4

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "call_s.p50": "s",
                    "ok_frac": "fraction", "peak_rss_mb": "MiB"}


@dataclass
class Pass:
    traced: bool
    wall: float
    durations: list
    outcomes: list
    #: kernel seconds before each call and after the last; empty if uncalibrated
    kernel: list = field(default_factory=list)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def child_setup_seconds() -> float:
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def call_times(passes: list[Pass], reference_s: float) -> list[float]:
    """Each call's median time over the passes.

    If the passes carry kernel times, a call's time in a pass is its seconds
    times ``reference_s`` over the mean kernel time on both sides of it.
    """
    if passes[0].kernel:
        per_pass = [[2.0 * reference_s * d / (k0 + k1)
                     for d, k0, k1 in zip(p.durations, p.kernel, p.kernel[1:])]
                    for p in passes]
    else:
        per_pass = [p.durations for p in passes]
    return [statistics.median(times) for times in zip(*per_pass)]


def run_pass(calls, invoke, tracer=None, root_name=None, kernel=None) -> Pass:
    """One pass over the calls; ``kernel``, if given, runs before each call and after the last."""
    durations, outcomes = [], []
    kernel_s = [kernel()] if kernel else []
    t0 = time.perf_counter()
    for entry, args in calls:
        c0 = time.perf_counter()
        try:
            if tracer is None:
                out = invoke(entry, args)
            else:
                with tracer.root(root_name(entry)):
                    out = invoke(entry, args)
        except Exception as exc:  # a failing call is counted and checked; the pass goes on
            out = exc
        durations.append(time.perf_counter() - c0)
        outcomes.append(out)
        if kernel:
            kernel_s.append(kernel())
    return Pass(tracer is not None, time.perf_counter() - t0, durations, outcomes, kernel_s)


def run_all(args) -> int:
    code = 0
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], timeout=900)
        code = max(code, done.returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "landaucrit" / "__init__.py").is_file():
        print(f"perfbench: no package under {SRC}; run it inside a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    setups = [setup_probe.setup()] + [child_setup_seconds() for _ in range(CHILD_SETUPS)]

    import calibrate
    import checks
    import layers

    calls = workloads.generate(args.workload, args.seed)
    reference = checks.load_reference(args.workload)
    tracer = Tracer() if args.trace else None
    calibrated = args.workload in workloads.CALIBRATED
    kernel = calibrate.kernel if calibrated else None

    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(passes) % 2 == 1:
            with tracer.installed(layers.WRAP_POINTS):
                passes.append(run_pass(calls, checks.invoke, tracer, layers.root_name, kernel))
        else:
            passes.append(run_pass(calls, checks.invoke, kernel=kernel))
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - start + passes[-1].wall > args.seconds:
            break

    failed, problems = checks.verify(calls, [p.outcomes for p in passes], reference)
    attempted = len(calls) * len(passes)
    raised = {f"{workloads.call_key(*call)}: {out!r}" for p in passes
              for call, out in zip(calls, p.outcomes) if isinstance(out, Exception)}
    for line in sorted(raised):
        print(f"raised: {line}", file=sys.stderr)
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)

    plain = [p for p in passes if not p.traced]
    print("env " + json.dumps({"workload": args.workload, "seed": args.seed,
                               "trace": args.trace, "calls_per_pass": len(calls),
                               "passes": len(passes), "calibrated": calibrated,
                               **environment()}))
    times = call_times(plain, calibrate.REFERENCE_S)
    if tracer is None:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(times),
            "call_s.p50": statistics.median(times),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        samples = {"setup_s": f"median of {len(setups)} set-ups",
                   "wall_s": f"{len(times)} calls, each median of {len(plain)} passes",
                   "call_s.p50": f"median of {len(times)} calls, each median of {len(plain)}",
                   "ok_frac": f"{attempted - failed} of {attempted} calls",
                   "peak_rss_mb": "1 process"}
    else:
        traced = [p for p in passes if p.traced]
        overhead = sum(call_times(traced, calibrate.REFERENCE_S)) - sum(times)
        results = [(entry, out) for p in traced for (entry, _), out in zip(calls, p.outcomes)]
        values = layers.layer_metrics(tracer.spans, self_times(tracer.spans), tracer.missing,
                                      len(traced), results, overhead)
        units = layers.units()
        note = f"per pass, {len(traced)} traced and {len(plain)} untraced passes"
        samples = {name: note if values[name] is not None
                   else "missing: wrap point not found" for name in units}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace_{args.workload}_seed{args.seed}.jsonl")

    for name, unit in units.items():
        v = values[name]
        shown = "missing" if v is None else f"{v:.6g}"
        print(f"metric {name:50s} {shown:>14s} {unit:9s} {samples[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
