"""In-memory span tracer that times calls into the ``repro`` package.

The tracer never edits the package: :meth:`Tracer.install` swaps each
target callable (a class attribute, or the name a calling module
imported) for a wrapper that records one span per call, and
:meth:`Tracer.uninstall` puts the originals back.  A target that no
longer exists is recorded in :attr:`Tracer.missing` instead of raising,
so a later rename shows up as a missing span rather than a crash.

A span is ``(name, start, end, parent, request)``: ``parent`` is the
index of the enclosing span, ``request`` the id the benchmark set for
the solve or schedule slot in progress.  A span's self time is its
duration minus the part of its interval that its children cover
(:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Span", "Target", "Tracer", "self_times", "summarize"]


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: Optional[int] = None
    request: Optional[int] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    ``owner`` is ``"module"`` or ``"module:Class"``; ``attr`` the name
    on it.  ``on_result(tracer, args, result)`` may add counts.
    """

    owner: str
    attr: str
    span: str
    on_result: Optional[Callable] = None


class Tracer:
    """Records nested spans and named counts; the clock is injectable."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self.request: Optional[int] = None
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, bool, object]] = []

    # ---- recording ---------------------------------------------------
    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = Span(name, self.clock(), parent=parent, request=self.request)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self.clock()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def wrap(self, fn: Callable, name: str, on_result: Optional[Callable] = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    # ---- patching ----------------------------------------------------
    def install(self, targets: Sequence[Target]) -> None:
        for target in targets:
            try:
                owner = _resolve(target.owner)
                raw = _lookup(owner, target.attr)
            except (ImportError, AttributeError):
                self.missing.append(target.span)
                continue
            own = target.attr in vars(owner)
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, target.span, target.on_result))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(raw.__func__, target.span, target.on_result))
            else:
                new = self.wrap(raw, target.span, target.on_result)
            setattr(owner, target.attr, new)
            self._patches.append((owner, target.attr, own, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, own, raw = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    if class_name:
        obj = getattr(obj, class_name)
    return obj


def _lookup(owner, attr: str):
    """The raw attribute (descriptor included), searching the MRO."""
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return vars(klass)[attr]
        raise AttributeError(attr)
    return getattr(owner, attr)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        intervals = sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end))
            for c in children.get(i, ())
        )
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.seconds - covered)
    return out


@dataclass
class SpanSummary:
    """Per-name totals plus the per-request self-time closure."""

    total: Dict[str, float] = field(default_factory=dict)
    self_total: Dict[str, float] = field(default_factory=dict)
    #: max over requests of |sum of self times - root span| / root span
    closure_gap: float = 0.0


def summarize(spans: Sequence[Span]) -> SpanSummary:
    selfs = self_times(spans)
    summary = SpanSummary()
    per_request_self: Dict[int, float] = defaultdict(float)
    per_request_root: Dict[int, float] = defaultdict(float)
    for s, own in zip(spans, selfs):
        summary.total[s.name] = summary.total.get(s.name, 0.0) + s.seconds
        summary.self_total[s.name] = summary.self_total.get(s.name, 0.0) + own
        if s.request is None:
            continue
        per_request_self[s.request] += own
        if s.parent is None:
            per_request_root[s.request] += s.seconds
    for request, root in per_request_root.items():
        if root > 0:
            gap = abs(per_request_self[request] - root) / root
            summary.closure_gap = max(summary.closure_gap, gap)
    return summary
