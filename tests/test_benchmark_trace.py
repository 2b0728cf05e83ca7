"""A traced pass of each benchmark workload, in process: every wrap point is
found, the package prints nothing, and the per-layer metrics serialize as
strict JSON, as the benchmark's last output line must."""

import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SEED = 101

WORKLOADS = ("schrodinger_sweep", "zspace_scan", "trial_certificates")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_reports_strict_json(monkeypatch, capsys, workload):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    checks, layers, tracer, workloads = (importlib.import_module(name) for name in
                                         ("checks", "layers", "tracer", "workloads"))
    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    tr = tracer.Tracer()
    results = []
    with tr.installed(layers.WRAP_POINTS):
        for entry, args in workloads.generate(workload, SEED):
            # as in the benchmark's pass, a raising call is an outcome
            with tr.root(layers.root_name(entry)):
                try:
                    out = checks.invoke(entry, args)
                except Exception as exc:
                    out = exc
            results.append((entry, out))
    assert tr.missing == []
    assert capsys.readouterr().out == ""
    metrics = layers.layer_metrics(tr.spans, tracer.self_times(tr.spans), tr.missing, 1,
                                   results, 0.0)
    json.dumps(metrics, allow_nan=False)
