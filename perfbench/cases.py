"""The benchmark workloads: one batch-solve path and two open-loop serve paths.

Each workload builds its inputs from the seed, times its set-up
several times, measures for a given number of seconds (or a given
number of requests), checks every output, and returns the end-to-end
metrics.  :func:`run_traced` repeats the measurement under the span
tracer and returns the per-layer metrics instead.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import repro.core as core
from repro.bounds import lower_bound
from repro.core import MCSSProblem, Workload
from repro.dynamic import ChurnConfig, ChurnModel, WorkloadDelta
from repro.experiments.config import make_plan
from repro.pricing import LinearBandwidthCost, LinearVMCost, PricingPlan, get_instance
from repro.serving import MicroEpochService, ServingConfig
from repro.solver import MCSSSolver
from repro.workloads import TwitterConfig, TwitterWorkloadGenerator
from repro.workloads.synthetic import zipf_workload

from schedule import describe, late_summary, place_slots
from spans import Target, Tracer, summarize

__all__ = ["WORKLOADS", "Checks", "ReadSampler", "run_untraced", "run_traced"]

TAU = 100.0
#: a closed-loop run makes at least this many solves, so that its tail
#: percentile (ten samples beyond it) lies above the median
MIN_SOLVES = 21
#: set-ups per run: at least 3, and more while under 2 s, at most 40
SETUPS = (3, 2.0, 40)
#: deployer reads taken off the clock, spread evenly over a run
READ_SAMPLES = 8
#: per-epoch pull of a drifting log-rate back to its base
DRIFT_REVERSION = 0.9


class Checks:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def crashed(self, what: str) -> None:
        self.record(False, f"{what}: {traceback.format_exc(limit=3)}")


@dataclass
class Pass:
    """One measured stretch of requests."""

    service_s: List[float] = field(default_factory=list)
    ops: List[int] = field(default_factory=list)
    gen_s: List[float] = field(default_factory=list)
    kinds: List[str] = field(default_factory=list)
    #: per solve or micro-epoch: the cost it produced, and the
    #: Algorithm-5 lower bound of its problem (computed off the clock)
    costs: List[float] = field(default_factory=list)
    bounds: List[float] = field(default_factory=list)
    state: object = None

    @property
    def requests(self) -> int:
        return len(self.service_s)

    def cost_over_lb(self) -> float:
        """Mean cost over the lower bound: solution quality, scale-free."""
        return statistics.fmean(c / b for c, b in zip(self.costs, self.bounds))


class ReadSampler:
    """Deployer reads taken between requests, off the clock.

    A read every ``stride`` requests spreads the samples over the whole
    run, so a slow spell of the machine moves them no more than it moves
    the request latencies.  Their time counts toward no request.
    """

    def __init__(self, case, checks: Checks, clock, stride: int) -> None:
        self._case = case
        self._checks = checks
        self._clock = clock
        self._stride = stride
        self.times: List[float] = []

    def after(self, request: int, state) -> None:
        if (request + 1) % self._stride == 0:
            self.take(state)

    def take(self, state) -> float:
        t0 = self._clock()
        ok, cost = self._case.read(state)
        self.times.append(self._clock() - t0)
        self._checks.record(ok, f"read {len(self.times)} did not validate")
        return cost

    def final(self, state, last_cost: float) -> None:
        """Read the final placement; it must cost what was last reported."""
        cost = self.take(state)
        self._checks.record(
            math.isclose(cost, last_cost, rel_tol=1e-9),
            f"final placement costs {cost}, last result reported {last_cost}",
        )


def _raw_inputs(workload: Workload) -> tuple:
    return (
        np.array(workload.event_rates, dtype=np.float64),
        np.array(workload.interest_indptr, dtype=np.int64),
        np.array(workload.interest_topics, dtype=np.int64),
        float(workload.message_size_bytes),
    )


def _copies(raw: tuple) -> tuple:
    rates, indptr, topics, msg = raw
    return rates.copy(), indptr.copy(), topics.copy(), msg


def _request(tracer: Optional[Tracer], request: int, name: str):
    if tracer is None:
        return nullcontext()
    tracer.request = request
    return tracer.span(name)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# solve-twitter
# ----------------------------------------------------------------------
class SolveTwitter:
    """Back-to-back paper solves (GSP + CBP, validation on)."""

    def __init__(self, users: int = 300_000) -> None:
        self.users = users

    def make_inputs(self, seed: int, scratch: Path) -> dict:
        trace = TwitterWorkloadGenerator(TwitterConfig(num_users=self.users)).generate(
            seed=seed
        )
        workload = trace.workload
        self.plan = make_plan("c3.large", workload)
        self.raw = _raw_inputs(workload)
        self.pairs = int(workload.num_pairs)
        return {
            "generator": "TwitterWorkloadGenerator",
            "users": self.users,
            "subscribers": int(workload.num_subscribers),
            "topics": int(workload.num_topics),
            "pairs": self.pairs,
            "tau": TAU,
            "plan": "c3.large, make_plan calibration",
            "capacity_bytes": float(self.plan.capacity_bytes),
        }

    def setup(self, checks: Checks, clock) -> tuple:
        """Inputs to first result: build the workload and solve it cold."""
        inputs = _copies(self.raw)
        t0 = clock()
        problem = MCSSProblem(Workload.from_csr(*inputs), TAU, self.plan)
        solution = MCSSSolver.paper().solve(problem)
        seconds = clock() - t0
        checks.record(solution.validation.ok, "setup solve did not validate")
        return seconds, (problem, solution), solution.cost.total_usd

    def expected_requests(self, seconds: float) -> int:
        return MIN_SOLVES

    def measure(self, state, checks, clock, tracer=None, seconds=None, count=None,
                reads: Optional[ReadSampler] = None) -> Pass:
        """Solve back to back: ``count`` times, or until ``seconds`` of
        solving and at least :data:`MIN_SOLVES` solves."""
        problem, solution = state
        out = Pass()
        while True:
            t0 = clock()
            try:
                with _request(tracer, out.requests, "bench.solve"):
                    solution = MCSSSolver.paper().solve(problem)
            except Exception:  # a failed solve is counted, not fatal
                checks.crashed("solve")
                break
            t1 = clock()
            out.service_s.append(t1 - t0)
            out.ops.append(self.pairs)
            out.gen_s.append(0.0)
            out.kinds.append("solve")
            out.costs.append(solution.cost.total_usd)
            checks.record(solution.validation.ok, f"solve {out.requests} did not validate")
            if reads is not None:
                reads.after(out.requests - 1, (problem, solution))
            if count is not None and out.requests >= count:
                break
            if (
                seconds is not None
                and sum(out.service_s) >= seconds
                and out.requests >= MIN_SOLVES
            ):
                break
        out.bounds = [lower_bound(problem).total_usd] * out.requests
        out.state = (problem, solution)
        return out

    def read(self, state):
        """A deployer read: audit the delivered placement."""
        problem, solution = state
        report = core.validate_placement(problem, solution.placement)
        return report.ok, problem.cost_of(solution.placement).total_usd

    def end_to_end(self, setups, run: Pass, reads) -> tuple:
        stats = describe(run.service_s)
        return {
            "setup_s": statistics.median(setups),
            "latency_p50_s": stats["p50"],
            "latency_tail_s": stats["tail"],
            "read_p50_s": statistics.median(reads),
            "capacity_ops_per_s": sum(run.ops) / sum(run.service_s),
            "cost_over_lb": run.cost_over_lb(),
        }, {
            "latency": stats,
            "ops_are": "interest pairs solved",
            "cost_usd": run.costs[-1],
            "lower_bound_usd": run.bounds[-1],
        }

    def cleanup(self) -> None:
        pass


# ----------------------------------------------------------------------
# serve-steady / serve-drift
# ----------------------------------------------------------------------
class MeanRevertingRates:
    """Per-topic log-rate drift that reverts to the base rates.

    ``x <- reversion * x + N(0, sigma)`` per epoch, rates
    ``max(1, round(base * exp(x)))`` -- integer-valued, like the churn
    model's own drift.  Unlike that drift (a random walk, whose spread
    grows with every epoch until the hottest pair outgrows a VM), this
    one is stationary, so runs of different seeds and lengths see the
    same kind of re-pricing.
    """

    def __init__(self, base_rates: np.ndarray, sigma: float, reversion: float, seed: int) -> None:
        self._base = np.asarray(base_rates, dtype=np.float64)
        self._x = np.zeros(self._base.size)
        self._sigma = sigma
        self._reversion = reversion
        self._rng = np.random.default_rng(seed)
        self.rates = self._base.copy()

    def step(self) -> np.ndarray:
        """Advance one epoch; returns the ids of re-priced topics."""
        self._x = self._reversion * self._x + self._rng.normal(
            0.0, self._sigma, size=self._base.size
        )
        rates = np.maximum(1.0, np.round(self._base * np.exp(self._x)))
        changed = np.flatnonzero(rates != self.rates)
        self.rates = rates
        return changed


class ChurnStream:
    """The serve input generator: churn steps plus optional rate drift."""

    def __init__(self, workload: Workload, config: ChurnConfig, sigma: float, seed: int) -> None:
        self._churn = ChurnModel(workload, config, seed=seed)
        self._drift = (
            MeanRevertingRates(workload.event_rates, sigma, DRIFT_REVERSION, seed + 1)
            if sigma > 0
            else None
        )

    def step(self) -> WorkloadDelta:
        delta = self._churn.step()
        if self._drift is None:
            return delta
        changed = self._drift.step()
        base = delta.workload
        workload = Workload.from_csr(
            self._drift.rates,
            base.interest_indptr,
            base.interest_topics,
            base.message_size_bytes,
            validate=False,
        )
        return WorkloadDelta(
            workload,
            delta.subscribed_topics,
            delta.subscribed_subscribers,
            delta.unsubscribed_topics,
            delta.unsubscribed_subscribers,
            changed,
        )


class Serve:
    """Open-loop micro-epoch serving: one pre-drawn churn step per slot."""

    def __init__(
        self,
        users: int,
        churn: float,
        drift_sigma: float,
        cadence_s: float,
        read_every: int = 0,
        checkpoint_every: int = 0,
        hot_pair_headroom: float = 1.25,
    ) -> None:
        self.users = users
        self.topics = max(100, users // 50)
        self.churn_config = ChurnConfig(churn, churn, 0.0)
        self.drift_sigma = drift_sigma
        self.cadence_s = cadence_s
        self.read_every = read_every
        self.checkpoint_every = checkpoint_every
        self.hot_pair_headroom = hot_pair_headroom
        self._tmp: Optional[str] = None

    def make_inputs(self, seed: int, scratch: Path) -> dict:
        workload = zipf_workload(self.topics, self.users, mean_interest=8.0, seed=seed)
        # The serving-rung capacity: the hottest pair (2 * rate) fits
        # with the given headroom, and at least one eighth of the
        # whole workload fits on one VM.  A drifting workload needs
        # headroom for its hottest pair's rate to rise.
        capacity = (
            max(
                2.0 * self.hot_pair_headroom * float(workload.event_rates.max()),
                float(workload.event_rates.sum()) / 8.0,
            )
            * workload.message_size_bytes
        )
        self.plan = PricingPlan(
            instance=get_instance("c3.large"),
            period_hours=1.0,
            bandwidth_cost=LinearBandwidthCost(0.12),
            vm_cost=LinearVMCost(10.0),
            capacity_bytes_override=float(capacity),
        )
        self.raw = _raw_inputs(workload)
        self.churn_seed = seed + 1
        if self.checkpoint_every:
            scratch.mkdir(parents=True, exist_ok=True)
            self._tmp = tempfile.mkdtemp(prefix="ckpt-", dir=scratch)
        cfg = self.churn_config
        return {
            "generator": "zipf_workload",
            "subscribers": int(workload.num_subscribers),
            "topics": int(workload.num_topics),
            "pairs": int(workload.num_pairs),
            "mean_interest": 8.0,
            "tau": TAU,
            "capacity_bytes": float(capacity),
            "hot_pair_headroom": self.hot_pair_headroom,
            "churn_seed": self.churn_seed,
            "subscribe_fraction": cfg.subscribe_fraction,
            "unsubscribe_fraction": cfg.unsubscribe_fraction,
            "rate_drift_sigma": self.drift_sigma,
            "rate_drift_reversion": DRIFT_REVERSION if self.drift_sigma else None,
            "cadence_s": self.cadence_s,
            "read_every": self.read_every,
            "checkpoint_every": self.checkpoint_every,
            "fresh_solve_every": ServingConfig().fresh_solve_every,
        }

    def _config(self) -> ServingConfig:
        if not self.checkpoint_every:
            return ServingConfig()
        return ServingConfig(
            checkpoint_path=os.path.join(self._tmp, "serve.ckpt.npz"),
            checkpoint_every=self.checkpoint_every,
        )

    def setup(self, checks: Checks, clock) -> tuple:
        """Inputs to first result: build the service (epoch-0 solve)."""
        inputs = _copies(self.raw)
        t0 = clock()
        problem = MCSSProblem(Workload.from_csr(*inputs), TAU, self.plan)
        service = MicroEpochService(problem, self._config())
        seconds = clock() - t0
        cost = problem.cost_of(service.placement()).total_usd
        return seconds, service, cost

    def expected_requests(self, seconds: float) -> int:
        """Slots in a schedule of ``seconds``."""
        return max(1, int(round(seconds / self.cadence_s)))

    def measure(self, service, checks, clock, tracer=None, seconds=None, count=None,
                reads: Optional[ReadSampler] = None) -> Pass:
        """Serve ``count`` slots, or a schedule of ``seconds``."""
        n = count if count is not None else self.expected_requests(seconds)
        churn = ChurnStream(
            service.reprovisioner.problem.workload,
            self.churn_config,
            self.drift_sigma,
            self.churn_seed,
        )
        out = Pass(state=service)
        for k in range(n):
            if self.read_every and (k + 1) % self.read_every == 0:
                t0 = clock()
                with _request(tracer, k, "bench.read"):
                    ok, _cost = self.read(service)
                t1 = clock()
                checks.record(ok, f"read at slot {k} did not validate")
                out.kinds.append("read")
                out.ops.append(0)
                out.gen_s.append(0.0)
            else:
                g0 = clock()
                delta = churn.step()
                g1 = clock()
                t0 = clock()
                try:
                    with _request(tracer, k, "bench.epoch"):
                        service.ingest_delta(delta)
                        report = service.run_micro_epoch(
                            delta.workload, delta.changed_topics
                        )
                except Exception:  # the service state is unknown after this
                    checks.crashed(f"micro-epoch at slot {k}")
                    break
                t1 = clock()
                checks.record(True, "micro-epoch")
                out.kinds.append("epoch")
                out.ops.append(int(report.ops))
                out.gen_s.append(g1 - g0)
                out.costs.append(report.report.cost.total_usd)
                out.bounds.append(
                    lower_bound(MCSSProblem(delta.workload, TAU, self.plan)).total_usd
                )
            out.service_s.append(t1 - t0)
            if reads is not None:
                reads.after(k, service)
        return out

    def read(self, service):
        """A deployer read: materialise the live placement and audit it."""
        problem = service.reprovisioner.problem
        placement = service.placement()
        report = core.validate_placement(problem, placement)
        return report.ok, problem.cost_of(placement).total_usd

    def end_to_end(self, setups, run: Pass, reads) -> tuple:
        timeline = place_slots(self.cadence_s, run.service_s, run.ops, run.gen_s)
        apply = [lat for lat, kind in zip(timeline.latency, run.kinds) if kind == "epoch"]
        stats = describe(apply)
        in_stream = [s for s, kind in zip(run.service_s, run.kinds) if kind == "read"]
        return {
            "setup_s": statistics.median(setups),
            "latency_p50_s": stats["p50"],
            "latency_tail_s": stats["tail"],
            "read_p50_s": statistics.median(in_stream + list(reads)),
            "capacity_ops_per_s": timeline.capacity_ops_per_s,
            "cost_over_lb": run.cost_over_lb(),
        }, {
            "cost_usd_mean": math.fsum(run.costs) / len(run.costs),
            "latency": stats,
            "ops_are": "churn ops (subscribes, unsubscribes, re-priced topics)",
            "reads_in_stream": len(in_stream),
            "busy_frac": timeline.busy_frac,
            "wall_ops_per_s": timeline.wall_ops_per_s,
            "backlog_ops_max": max(timeline.backlog),
            "wait_p50_s": statistics.median(timeline.wait),
            "churn_generator": late_summary(run.gen_s, timeline.gen_late),
        }

    def cleanup(self) -> None:
        if self._tmp:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None


WORKLOADS: Dict[str, Callable[[], object]] = {
    "solve-twitter": SolveTwitter,
    "serve-steady": lambda: Serve(
        users=200_000,
        churn=0.001,
        drift_sigma=0.0,
        cadence_s=0.8,
        read_every=10,
        checkpoint_every=5,
    ),
    "serve-drift": lambda: Serve(
        users=50_000,
        churn=0.002,
        drift_sigma=0.05,
        cadence_s=0.9,
        hot_pair_headroom=2.5,
    ),
}


# ----------------------------------------------------------------------
# running a workload
# ----------------------------------------------------------------------
def run_untraced(case, seconds: float, checks: Checks, clock=time.perf_counter):
    """Set up several times, measure, check; the end-to-end metrics."""
    least, budget_s, most = SETUPS
    setups, costs = [], []
    state = None
    t0 = clock()
    while len(setups) < least or (clock() - t0 < budget_s and len(setups) < most):
        state = None  # release the previous set-up before building the next
        seconds_, state, cost = case.setup(checks, clock)
        setups.append(seconds_)
        costs.append(cost)
    checks.record(len(set(costs)) == 1, f"set-ups disagree on cost: {costs}")
    stride = max(1, round(case.expected_requests(seconds) / READ_SAMPLES))
    reads = ReadSampler(case, checks, clock, stride)
    run = case.measure(state, checks, clock, seconds=seconds, reads=reads)
    if not run.costs:
        return None, {"setups_s": setups}
    if isinstance(case, SolveTwitter):
        checks.record(
            set(run.costs) == {costs[0]}, "repeated solves disagree on cost"
        )
    reads.final(run.state, run.costs[-1])
    metrics, detail = case.end_to_end(setups, run, reads.times)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    detail.update(
        setups_s=setups,
        reads_s=reads.times,
        requests=run.requests,
        service_s=run.service_s,
        kinds=run.kinds,
    )
    return metrics, detail


def _layer_targets() -> List[Target]:
    def on_select(tracer, args, result):
        tracer.count("selection.pairs_in", args[1].workload.num_pairs)
        tracer.count("selection.pairs_out", result.num_pairs)

    def on_pack(tracer, args, result):
        tracer.count("packing.pairs_placed", args[2].num_pairs)
        tracer.count("packing.vms_opened", result.num_vms)

    def on_step(tracer, args, report):
        tracer.count("dynamic.steps")
        tracer.count("dynamic.pairs_added", report.pairs_added)
        tracer.count("dynamic.pairs_removed", report.pairs_removed)
        tracer.count("dynamic.pairs_moved", report.pairs_moved)
        tracer.count("dynamic.vms_opened", report.vms_opened)
        tracer.count("dynamic.vms_closed", report.vms_closed)
        tracer.count("dynamic.fresh_solves", int(report.fresh_solved))
        tracer.count("dynamic.rebuilds", int(report.rebuilt))

    def on_checkpoint(tracer, args, path):
        tracer.count("resilience.checkpoints")
        tracer.count("resilience.checkpoint_bytes", os.path.getsize(path))

    return [
        Target("repro.solver.pipeline:MCSSSolver", "solve", "solver.solve"),
        Target("repro.selection.greedy:GreedySelectPairs", "select", "selection.select", on_select),
        Target("repro.packing.custom:CustomBinPacking", "pack", "packing.pack", on_pack),
        Target("repro.solver.pipeline", "validate_placement", "core.validate"),
        Target("repro.core", "validate_placement", "core.validate"),
        Target("repro.core.placement:Placement", "from_pair_arrays", "core.materialize"),
        Target("repro.dynamic.reprovision", "lower_bound", "bounds.lower_bound"),
        Target("repro.dynamic.reprovision", "advance_orders", "dynamic.advance_orders"),
        Target("repro.dynamic.reprovision:IncrementalReprovisioner", "step", "dynamic.step", on_step),
        Target("repro.serving.service:MicroEpochService", "run_micro_epoch", "serving.run"),
        Target("repro.serving.queue:ChurnIngestQueue", "seal_epoch", "serving.seal"),
        Target("repro.serving.service", "save_checkpoint", "resilience.checkpoint", on_checkpoint),
    ]


def per_layer_metrics(case, run: Pass, tracer: Tracer, overhead: float) -> Dict[str, float]:
    """Fold spans and counts into the per-layer metrics.

    Times are seconds per request (a solve, or a schedule slot), so self
    times add up; counts are per request, except the ``dynamic`` counts
    (per micro-epoch) and checkpoint bytes (per checkpoint).
    """
    summary = summarize(tracer.spans)
    counts = tracer.counts
    n = max(run.requests, 1)

    def per(name: str) -> float:
        return summary.total.get(name, 0.0) / n

    def own(name: str) -> float:
        return summary.self_total.get(name, 0.0) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    steps = counts.get("dynamic.steps", 0.0)
    checkpoints = counts.get("resilience.checkpoints", 0.0)
    metrics = {
        "solver.solve_s": per("solver.solve"),
        "solver.self_s": own("solver.solve"),
        "selection.select_s": per("selection.select"),
        "selection.pairs_in": counts.get("selection.pairs_in", 0.0) / n,
        "selection.pairs_out": counts.get("selection.pairs_out", 0.0) / n,
        "selection.kept_frac": ratio(
            counts.get("selection.pairs_out", 0.0), counts.get("selection.pairs_in", 0.0)
        ),
        "packing.pack_s": per("packing.pack"),
        "packing.vms_opened": counts.get("packing.vms_opened", 0.0) / n,
        "packing.pairs_placed": counts.get("packing.pairs_placed", 0.0) / n,
        "core.validate_s": per("core.validate"),
        "core.materialize_s": per("core.materialize"),
        "bounds.lower_bound_s": per("bounds.lower_bound"),
        "dynamic.step_s": per("dynamic.step"),
        "dynamic.step_self_s": own("dynamic.step"),
        "dynamic.advance_orders_s": per("dynamic.advance_orders"),
        "dynamic.fresh_solve_frac": ratio(counts.get("dynamic.fresh_solves", 0.0), steps),
        "serving.run_s": per("serving.run"),
        "serving.seal_s": per("serving.seal"),
        "resilience.checkpoint_s": per("resilience.checkpoint"),
        "resilience.checkpoint_bytes": ratio(
            counts.get("resilience.checkpoint_bytes", 0.0), checkpoints
        ),
        "trace.overhead_frac": overhead,
        "trace.selftime_gap_frac": summary.closure_gap,
        "trace.missing_spans": float(len(set(tracer.missing))),
    }
    for name in (
        "pairs_added", "pairs_removed", "pairs_moved",
        "vms_opened", "vms_closed", "fresh_solves", "rebuilds",
    ):
        metrics[f"dynamic.{name}"] = ratio(counts.get(f"dynamic.{name}", 0.0), steps)
    if isinstance(case, Serve):
        timeline = place_slots(case.cadence_s, run.service_s, run.ops, run.gen_s)
        epochs = [i for i, kind in enumerate(run.kinds) if kind == "epoch"]
        metrics["serving.wait_s"] = statistics.fmean(timeline.wait[i] for i in epochs)
        metrics["serving.busy_frac"] = timeline.busy_frac
        metrics["serving.backlog_ops"] = float(max(timeline.backlog))
        metrics["serving.batch_ops"] = statistics.fmean(run.ops[i] for i in epochs)
    else:
        for name in ("wait_s", "busy_frac", "backlog_ops", "batch_ops"):
            metrics[f"serving.{name}"] = 0.0
    return metrics


def run_traced(case, seconds: float, checks: Checks, clock=time.perf_counter):
    """An untraced pass, then the same requests traced; per-layer metrics.

    The two passes start from identical set-ups, so their cost
    trajectories must agree exactly; their busy times give the tracing
    overhead.
    """
    _, state, _ = case.setup(checks, clock)
    plain = case.measure(state, checks, clock, seconds=seconds)
    plain.state = state = None
    _, state, _ = case.setup(checks, clock)
    tracer = Tracer(clock)
    tracer.install(_layer_targets())
    try:
        traced = case.measure(state, checks, clock, tracer, count=plain.requests)
    finally:
        tracer.uninstall()
    checks.record(
        traced.costs == plain.costs,
        "traced and untraced runs produced different cost trajectories",
    )
    if traced.costs:
        ReadSampler(case, checks, clock, 1).final(traced.state, traced.costs[-1])
    overhead = sum(traced.service_s) / sum(plain.service_s) - 1.0 if plain.service_s else 0.0
    metrics = per_layer_metrics(case, traced, tracer, overhead)
    detail = {
        "requests": traced.requests,
        "missing_spans": sorted(set(tracer.missing)),
        "untraced_busy_s": sum(plain.service_s),
        "traced_busy_s": sum(traced.service_s),
    }
    return metrics, detail, tracer
