"""Span self-time arithmetic and patching, on fake clocks."""

import sys
import types

import pytest

from cases import MIN_SOLVES, Checks, Serve, SolveTwitter, run_traced
from spans import Span, Target, Tracer, self_times, summarize


class TickClock:
    """Every read advances time by one tick."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.request = 0
    with tracer.span("a"):
        clock.now += 1
        with tracer.span("b"):
            clock.now += 2
        clock.now += 0.5
        with tracer.span("c"):
            clock.now += 1
        clock.now += 0.25
    a, b, c = tracer.spans
    assert (a.start, a.end, b.parent, c.parent) == (0.0, 4.75, 0, 0)
    assert self_times(tracer.spans) == [1.75, 2.0, 1.0]
    summary = summarize(tracer.spans)
    assert summary.total == {"a": 4.75, "b": 2.0, "c": 1.0}
    assert summary.self_total == {"a": 1.75, "b": 2.0, "c": 1.0}
    assert summary.closure_gap == 0.0


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [
        Span("p", 0.0, 10.0),
        Span("x", 1.0, 4.0, parent=0),
        Span("y", 3.0, 6.0, parent=0),
        Span("z", 8.0, 12.0, parent=0),
    ]
    assert self_times(spans)[0] == 10.0 - 5.0 - 2.0


def test_closure_gap_flags_double_counted_children():
    spans = [
        Span("root", 0.0, 4.0, request=1),
        Span("x", 0.0, 3.0, parent=0, request=1),
        Span("y", 1.0, 4.0, parent=0, request=1),
    ]
    # the root's self time is 0; the overlapping children add to 6
    assert summarize(spans).closure_gap == pytest.approx(0.5)


@pytest.fixture
def fake_layer(monkeypatch):
    module = types.ModuleType("fake_layer")

    class Base:
        def inherited(self, x):
            return x + 1

    class Child(Base):
        def own(self, x):
            return x * 2

        @classmethod
        def build(cls, x):
            return (cls, x)

    def helper(x):
        return -x

    module.Base, module.Child, module.helper = Base, Child, helper
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    return module


def test_install_wraps_and_uninstall_restores(fake_layer):
    child = fake_layer.Child
    originals = dict(vars(child)), fake_layer.helper
    tracer = Tracer(TickClock())
    seen = []
    tracer.install(
        [
            Target("fake_layer:Child", "own", "layer.own"),
            Target("fake_layer:Child", "inherited", "layer.inherited"),
            Target("fake_layer:Child", "build", "layer.build"),
            Target("fake_layer", "helper", "layer.helper",
                   lambda tr, args, result: seen.append((args, result))),
            Target("fake_layer:Child", "renamed_away", "layer.gone"),
            Target("no_such_module_here", "f", "layer.nomodule"),
        ]
    )
    try:
        obj = child()
        assert obj.own(3) == 6
        assert obj.inherited(3) == 4
        assert child.build(5) == (child, 5)
        assert fake_layer.helper(2) == -2
    finally:
        tracer.uninstall()
    assert [s.name for s in tracer.spans] == [
        "layer.own", "layer.inherited", "layer.build", "layer.helper",
    ]
    assert seen == [((2,), -2)]
    assert tracer.missing == ["layer.gone", "layer.nomodule"]
    assert dict(vars(child)) == originals[0]
    assert "inherited" not in vars(child)
    assert fake_layer.helper is originals[1]


def _assert_tick_arithmetic(tracer):
    """On a tick clock each span's self time is 1 + its direct children."""
    children = [0] * len(tracer.spans)
    for s in tracer.spans:
        if s.parent is not None:
            children[s.parent] += 1
    assert self_times(tracer.spans) == [1.0 + c for c in children]
    assert summarize(tracer.spans).closure_gap == 0.0


def test_traced_serve_run_on_2k_subscribers(tmp_path):
    case = Serve(
        users=2000, churn=0.01, drift_sigma=0.05,
        cadence_s=1.0, read_every=4, checkpoint_every=2,
    )
    case.make_inputs(seed=5, scratch=tmp_path)
    checks = Checks()
    try:
        metrics, detail, tracer = run_traced(case, 9.0, checks, clock=TickClock())
    finally:
        case.cleanup()
    assert checks.failed == 0, checks.errors
    assert detail["missing_spans"] == []
    assert detail["requests"] == 9
    names = [s.name for s in tracer.spans]
    epochs, reads = 7, 2
    assert names.count("bench.epoch") == epochs
    assert names.count("bench.read") == reads
    assert names.count("serving.run") == epochs
    assert names.count("serving.seal") == epochs
    assert names.count("dynamic.step") == epochs
    assert names.count("resilience.checkpoint") == 3
    assert metrics["dynamic.fresh_solve_frac"] * epochs == names.count("solver.solve")
    assert metrics["trace.missing_spans"] == 0.0
    assert metrics["trace.selftime_gap_frac"] == 0.0
    assert metrics["resilience.checkpoint_bytes"] > 0
    _assert_tick_arithmetic(tracer)
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.request for s in roots] == list(range(9))


def test_traced_solve_run_on_2k_users():
    checks = Checks()
    case = SolveTwitter(users=2000)
    case.make_inputs(seed=5, scratch=None)
    metrics, detail, tracer = run_traced(case, 0.0, checks, clock=TickClock())
    assert checks.failed == 0, checks.errors
    # a zero-second run still makes MIN_SOLVES solves, traced and untraced
    assert detail["requests"] == MIN_SOLVES
    names = ["bench.solve", "solver.solve", "selection.select", "packing.pack", "core.validate"]
    assert [s.name for s in tracer.spans] == names * MIN_SOLVES
    assert [s.request for s in tracer.spans] == [
        i for i in range(MIN_SOLVES) for _ in names
    ]
    _assert_tick_arithmetic(tracer)
    assert metrics["selection.kept_frac"] == (
        metrics["selection.pairs_out"] / metrics["selection.pairs_in"]
    )
    assert metrics["serving.run_s"] == 0.0
