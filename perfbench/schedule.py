"""Open-loop schedule arithmetic and the summary statistics the benchmark prints.

A serve run is a single-server FIFO queue with deterministic arrivals:
slot ``k`` is due at ``k * cadence`` and the service takes it when it
is due or when it becomes free, whichever is later.  The benchmark
measures each slot's service time with the real clock and places it on
this timeline with :func:`place_slots`.  The clock is paused while the
next churn step is drawn, so input generation neither counts toward a
metric nor delays the schedule; :func:`place_slots` instead reports how
late an in-line generator would have made each slot.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import List, Optional, Sequence

__all__ = [
    "Timeline",
    "place_slots",
    "nearest_rank",
    "tail_percentile",
    "describe",
    "late_summary",
]


@dataclass(frozen=True)
class Timeline:
    due: List[float]
    start: List[float]
    finish: List[float]
    wait: List[float]
    #: finish - due: queue wait plus service time
    latency: List[float]
    #: per slot, ops due by its start and not yet applied (itself included)
    backlog: List[int]
    #: per slot, how far an in-line generator would have run past the
    #: idle time before the slot was due
    gen_late: List[float]
    busy_s: float
    span_s: float
    ops: int

    @property
    def busy_frac(self) -> float:
        return self.busy_s / self.span_s if self.span_s > 0 else 0.0

    @property
    def capacity_ops_per_s(self) -> float:
        """Ops applied per second the service was busy."""
        return self.ops / self.busy_s if self.busy_s > 0 else 0.0

    @property
    def wall_ops_per_s(self) -> float:
        """Ops applied per second of schedule, idle time included."""
        return self.ops / self.span_s if self.span_s > 0 else 0.0


def place_slots(
    cadence: float,
    service_s: Sequence[float],
    ops: Sequence[int],
    gen_s: Optional[Sequence[float]] = None,
) -> Timeline:
    """Put measured service times on the open-loop timeline.

    ``service_s[k]`` is slot ``k``'s measured service time, ``ops[k]``
    the churn ops it applies (0 for a read) and ``gen_s[k]`` the time
    spent drawing its input.  The span is the later of the last finish
    and the end of the last slot's period.
    """
    if cadence <= 0:
        raise ValueError("cadence must be positive")
    n = len(service_s)
    if len(ops) != n or (gen_s is not None and len(gen_s) != n):
        raise ValueError("service_s, ops and gen_s must be parallel")
    gen_s = gen_s if gen_s is not None else [0.0] * n
    due = [k * cadence for k in range(n)]
    start: List[float] = []
    finish: List[float] = []
    gen_late: List[float] = []
    free_at = 0.0
    for k in range(n):
        idle = max(0.0, due[k] - free_at)
        gen_late.append(max(0.0, gen_s[k] - idle))
        begin = max(due[k], free_at)
        start.append(begin)
        free_at = begin + service_s[k]
        finish.append(free_at)
    prefix = [0]
    for count in ops:
        prefix.append(prefix[-1] + int(count))
    backlog = []
    last_due = 0
    for k in range(n):
        while last_due + 1 < n and due[last_due + 1] <= start[k]:
            last_due += 1
        backlog.append(prefix[max(last_due, k) + 1] - prefix[k])
    span = max(finish[-1], n * cadence) if n else 0.0
    return Timeline(
        due=due,
        start=start,
        finish=finish,
        wait=[s - d for s, d in zip(start, due)],
        latency=[f - d for f, d in zip(finish, due)],
        backlog=backlog,
        gen_late=gen_late,
        busy_s=float(sum(service_s)),
        span_s=span,
        ops=prefix[-1],
    )


def nearest_rank(values: Sequence[float], pct: int) -> float:
    """The nearest-rank ``pct``-th percentile (``pct`` in 1..100)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = -(-pct * len(ordered) // 100)
    return ordered[max(rank, 1) - 1]


def tail_percentile(n: int, beyond: int = 10) -> int:
    """Highest percentile in 51..99 whose nearest rank leaves ``beyond``
    samples above it; 100 (the maximum) when there are too few samples
    for any."""
    for pct in range(99, 50, -1):
        if n - (-(-pct * n // 100)) >= beyond:
            return pct
    return 100


def describe(values: Sequence[float]) -> dict:
    """Median, tail (with its percentile) and sample count."""
    pct = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": statistics.median(values),
        "tail": nearest_rank(values, pct),
        "tail_pct": pct,
        "min": min(values),
        "max": max(values),
    }


def late_summary(gen_s: Sequence[float], gen_late: Sequence[float]) -> dict:
    return {
        "gen_total_s": float(math.fsum(gen_s)),
        "late_slots": sum(1 for x in gen_late if x > 0),
        "late_max_s": max(gen_late, default=0.0),
        "late_total_s": float(math.fsum(gen_late)),
    }
