"""Self-checks of the benchmark's tracer; run with ``python3 -m pytest perfbench/tests``."""

import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import Span, Tracer, self_times  # noqa: E402


class TickClock:
    """Clock that advances by one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def _synthetic_module():
    mod = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    return mod


def test_self_time_of_a_nested_call():
    mod = _synthetic_module()
    tracer = Tracer(clock=TickClock())
    points = [(mod, "outer", "outer", None), (mod, "inner", "inner", lambda a: 3)]
    with tracer.installed(points):
        with tracer.root("call"):
            assert mod.outer(1) == 4
    # readings: call 1, outer 2, inner 3-4, inner 5-6, outer 7, call 8
    by_name = {}
    for s, own in zip(tracer.spans, self_times(tracer.spans)):
        by_name.setdefault(s.name, []).append((s.end - s.start, own, s.size, s.trace))
    assert by_name["call"] == [(7.0, 2.0, 0, 1)]
    assert by_name["outer"] == [(5.0, 3.0, 0, 1)]
    assert by_name["inner"] == [(1.0, 1.0, 3, 1), (1.0, 1.0, 3, 1)]
    assert mod.outer.__name__ == "outer" and not hasattr(mod.outer, "__wrapped__")


def test_overlapping_children_are_counted_once():
    parent = Span("p", 0.0, -1, 1, 0)
    parent.end = 10.0
    a, b, c = Span("a", 1.0, 0, 1, 0), Span("b", 2.0, 0, 1, 0), Span("c", 9.0, 0, 1, 0)
    a.end, b.end, c.end = 4.0, 5.0, 12.0
    assert self_times([parent, a, b, c])[0] == 10.0 - 4.0 - 1.0


def test_missing_wrap_point_is_reported_not_raised():
    mod = _synthetic_module()
    tracer = Tracer(clock=TickClock())
    with tracer.installed([(mod, "gone", "gone", None), (mod, "inner", "inner", None)]):
        mod.inner(0)
    assert tracer.missing == ["gone"]
    assert [s.name for s in tracer.spans] == ["inner"]


def test_error_is_recorded_and_propagates():
    mod = types.SimpleNamespace(boom=lambda: 1 / 0)
    tracer = Tracer(clock=TickClock())
    with tracer.installed([(mod, "boom", "boom", None)]):
        try:
            mod.boom()
        except ZeroDivisionError:
            pass
        else:
            raise AssertionError("the wrapped error must propagate")
    assert tracer.spans[0].error == "ZeroDivisionError"
    assert tracer._stack == []


def test_layer_metrics_of_a_missing_wrap_point_are_none():
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    import layers

    eigh = Span(layers.EIGH, 0.0, -1, 1, 40)
    eigh.end = 2.0
    values = layers.layer_metrics([eigh], [2.0], ["sturm_liouville.build_tridiagonal"],
                                  passes=2, results=[], overhead_s=0.5)
    assert values["sturm_liouville.build_tridiagonal.calls"] is None
    assert values["sturm_liouville.build_tridiagonal.s"] is None
    assert values["sturm_liouville.eigensolves"] == 0.5
    assert values["sturm_liouville.eigensolve_rows"] == 20
    assert values["sturm_liouville.eigensolve_rows.max"] == 40
    assert values["sturm_liouville.self_s"] == 1.0
    assert values["critical_field.E1_of_kappa.calls"] == 0
    assert set(values) == set(layers.units())
