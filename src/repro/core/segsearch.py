"""Sorted-array primitives shared by the vectorized hot paths.

* :func:`segments_ascend` / :func:`first_duplicate_segment` -- the
  one-pass CSR checks behind construction validation
  (:class:`~repro.core.workload.Workload`,
  :class:`~repro.core.pairs.PairSelection`): strictly ascending
  segments cannot repeat a value, so the duplicate search only sorts
  when that pass fails.
* :func:`sorted_member` -- membership of needles in a sorted haystack.
* :func:`segmented_left_search` -- lane-parallel bisection of
  *per-segment* windows whose order is not global: the GSP sweep's
  per-subscriber descending rates
  (:func:`repro.selection.greedy._segmented_first_leq`) are its one
  caller.  Windows over a globally non-decreasing array need no
  bisection -- a clipped ``np.searchsorted`` answers them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "first_duplicate_segment",
    "segmented_left_search",
    "segments_ascend",
    "sorted_member",
]


def segments_ascend(indptr: np.ndarray, values: np.ndarray) -> bool:
    """Whether ``values`` strictly ascends inside every CSR segment.

    ``values[indptr[s]:indptr[s+1]]`` is segment ``s``.  One whole-array
    neighbour comparison: a position where the values fail to rise is
    allowed only where a new segment starts.
    """
    if values.size < 2:
        return True
    rises = values[1:] > values[:-1]
    cuts = indptr[(indptr > 0) & (indptr < values.size)]
    rises[cuts - 1] = True
    return bool(rises.all())


def first_duplicate_segment(indptr: np.ndarray, values: np.ndarray) -> int:
    """Smallest segment index that lists some value twice, or ``-1``.

    Ascending segments answer in one O(P) pass; otherwise one sort of
    the composite keys ``segment * span + (value - low)`` puts equal
    pairs next to each other, and the first equal neighbour belongs to
    the smallest offending segment.
    """
    if segments_ascend(indptr, values):
        return -1
    low = int(values.min())
    span = int(values.max()) - low + 1
    num_segments = indptr.size - 1
    if num_segments * span >= 1 << 63:
        # Sparse values: rank them densely so the keys cannot wrap.
        values = np.unique(values, return_inverse=True)[1]
        low, span = 0, int(values.max()) + 1
    segment = np.repeat(
        np.arange(num_segments, dtype=np.int64), np.diff(indptr)
    )
    keys = segment * np.int64(span)
    keys += values - low
    keys.sort()
    dup = np.flatnonzero(keys[1:] == keys[:-1])
    return int(keys[int(dup[0]) + 1] // span) if dup.size else -1


def sorted_member(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Boolean membership of ``needles`` in a *sorted* ``haystack``.

    One ``np.searchsorted`` plus a gather -- O(m log n) for m needles.
    The shared primitive behind the dynamic epoch pipeline's set
    algebra (old/new selection differences in the reprovisioner, the
    already-subscribed test in the churn model).
    """
    if haystack.size == 0 or needles.size == 0:
        return np.zeros(needles.size, dtype=bool)
    pos = np.searchsorted(haystack, needles)
    pos_clip = np.minimum(pos, haystack.size - 1)
    return (pos < haystack.size) & (haystack[pos_clip] == needles)


def segmented_left_search(
    values: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    target: np.ndarray,
    go_left_when: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Per-lane leftmost index ``i`` in ``[lo, hi)`` satisfying the predicate.

    ``go_left_when(values[mid], target)`` must be monotone inside every
    window: False ... False True ... True along the window (e.g.
    ``np.less_equal`` over descending values).  Returns ``hi`` for
    lanes where no index satisfies it.

    Branchless lane-parallel bisection: every lane advances one step
    per iteration, so the body runs ``ceil(log2(max_window + 1))``
    times however many lanes there are.
    """
    if lo.size == 0:
        return lo.copy()
    lo = lo.copy()
    hi = hi.copy()
    size = values.size
    span = int((hi - lo).max())
    for _ in range(max(span, 0).bit_length()):
        mid = (lo + hi) >> 1
        # Converged lanes (lo == hi) are forced left so they stay put.
        go_left = go_left_when(values[np.minimum(mid, size - 1)], target) | (lo >= hi)
        hi = np.where(go_left, mid, hi)
        lo = np.where(go_left, lo, mid + 1)
    return lo
