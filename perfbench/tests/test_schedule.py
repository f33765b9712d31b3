"""Open-loop arithmetic, checked exactly under a scripted fake clock."""

import math
import statistics

import pytest

import cases
from cases import Checks, ReadSampler, Serve
from schedule import describe, nearest_rank, place_slots, tail_percentile


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_place_slots_queue_arithmetic():
    # cadence 1: slot 1 overruns, so slots 2-4 queue behind it.
    timeline = place_slots(
        1.0,
        service_s=[0.5, 2.5, 0.75, 0.25, 0.5],
        ops=[10, 20, 0, 30, 40],
        gen_s=[0.25, 0.25, 0.0, 0.25, 0.25],
    )
    assert timeline.due == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert timeline.start == [0.0, 1.0, 3.5, 4.25, 4.5]
    assert timeline.finish == [0.5, 3.5, 4.25, 4.5, 5.0]
    assert timeline.wait == [0.0, 0.0, 1.5, 1.25, 0.5]
    assert timeline.latency == [0.5, 2.5, 2.25, 1.5, 1.0]
    # due by each start and not yet applied, the starting slot included
    assert timeline.backlog == [10, 20, 30, 70, 40]
    # an in-line generator overruns the idle time before slots 0, 3, 4
    assert timeline.gen_late == [0.25, 0.0, 0.0, 0.25, 0.25]
    assert timeline.busy_s == 4.5
    assert timeline.span_s == 5.0
    assert timeline.ops == 100
    assert timeline.busy_frac == 0.9
    assert timeline.capacity_ops_per_s == 100 / 4.5
    assert timeline.wall_ops_per_s == 20.0


def test_idle_service_never_waits():
    timeline = place_slots(2.0, [0.5, 0.5, 0.5], [1, 1, 1])
    assert timeline.wait == [0.0, 0.0, 0.0]
    assert timeline.backlog == [1, 1, 1]
    assert timeline.span_s == 6.0
    assert timeline.busy_frac == 0.25


def test_place_slots_rejects_ragged_input():
    with pytest.raises(ValueError):
        place_slots(1.0, [0.1, 0.2], [1])
    with pytest.raises(ValueError):
        place_slots(0.0, [0.1], [1])


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(100) == 90
    assert tail_percentile(50) == 80
    assert tail_percentile(45) == 77
    assert tail_percentile(21) == 52
    assert tail_percentile(20) == 100
    for n in range(21, 400):
        pct = tail_percentile(n)
        rank = math.ceil(pct * n / 100)
        assert n - rank >= 10
        assert pct == 99 or n - math.ceil((pct + 1) * n / 100) < 10


def test_nearest_rank_and_describe():
    values = [float(v) for v in range(1, 31)]  # 1..30
    assert nearest_rank(values, 50) == 15.0
    assert nearest_rank(values, 100) == 30.0
    stats = describe(values)
    assert stats["n"] == 30
    assert stats["tail_pct"] == 66
    assert stats["tail"] == 20.0
    assert stats["p50"] == 15.5


def test_serve_run_on_scripted_clock(monkeypatch):
    """A real 2k-subscriber service; only the clock is scripted."""
    clock = FakeClock()
    case = Serve(
        users=2000, churn=0.01, drift_sigma=0.0,
        cadence_s=1.0, read_every=3,
    )
    case.make_inputs(seed=3, scratch=None)
    checks = Checks()
    _, service, _ = case.setup(checks, clock)

    epoch_s = [0.5, 2.5, 0.25, 0.5]
    # in-stream read at slot 2, off-clock read after it, the same at slot 5
    read_s = [0.75, 0.125, 0.5, 0.375]
    run_epoch = service.run_micro_epoch

    def scripted_epoch(*args, **kwargs):
        report = run_epoch(*args, **kwargs)
        clock.advance(epoch_s.pop(0))
        return report

    read = case.read

    def scripted_read(svc):
        outcome = read(svc)
        clock.advance(read_s.pop(0))
        return outcome

    class ScriptedChurn(cases.ChurnModel):
        def step(self):
            delta = super().step()
            clock.advance(0.25)
            return delta

    monkeypatch.setattr(service, "run_micro_epoch", scripted_epoch)
    monkeypatch.setattr(case, "read", scripted_read)
    monkeypatch.setattr(cases, "ChurnModel", ScriptedChurn)

    reads = ReadSampler(case, checks, clock, stride=3)
    run = case.measure(service, checks, clock, seconds=6.0, reads=reads)
    assert checks.failed == 0
    assert reads.times == [0.125, 0.375]
    assert run.kinds == ["epoch", "epoch", "read", "epoch", "epoch", "read"]
    assert run.service_s == [0.5, 2.5, 0.75, 0.25, 0.5, 0.5]
    assert run.gen_s == [0.25, 0.25, 0.0, 0.25, 0.25, 0.0]
    ops = run.ops
    assert ops[2] == ops[5] == 0 and min(ops[i] for i in (0, 1, 3, 4)) > 0

    metrics, detail = case.end_to_end([1.0, 3.0, 2.0], run, reads.times)
    assert metrics["setup_s"] == 2.0
    # apply latency (due -> done) of epochs at slots 0, 1, 3, 4
    assert detail["latency"]["n"] == 4
    assert metrics["latency_p50_s"] == 1.25
    assert detail["latency"]["tail_pct"] == 100
    assert metrics["latency_tail_s"] == 2.5
    assert detail["reads_in_stream"] == 2
    assert metrics["read_p50_s"] == (0.375 + 0.5) / 2
    assert metrics["capacity_ops_per_s"] == sum(ops) / 5.0
    assert detail["busy_frac"] == 5.0 / 6.0
    assert detail["backlog_ops_max"] == max(ops[0], ops[1], ops[3] + ops[4])
    assert detail["churn_generator"] == {
        "gen_total_s": 1.0,
        "late_slots": 3,
        "late_max_s": 0.25,
        "late_total_s": 0.75,
    }
    assert detail["cost_usd_mean"] == math.fsum(run.costs) / 4
    assert len(run.bounds) == 4
    assert metrics["cost_over_lb"] == statistics.fmean(c / b for c, b in zip(run.costs, run.bounds))
    assert metrics["cost_over_lb"] >= 1.0
