"""VM placement model and per-VM bandwidth accounting (Equation (2)).

A :class:`Placement` is the output of Stage 2: an assignment of the
selected topic-subscriber pairs to a fleet of VMs ``B``.  For a VM
``b`` the paper defines

    bw_b = sum_{(t,v) assigned to b} ev_t        (outgoing)
         + sum_{t hosted on b} ev_t              (incoming, once per VM)

i.e. each pair costs one outgoing copy of the topic's event stream and
each *distinct* topic hosted on a VM costs one incoming copy.  Spreading
the pairs of one topic over ``k`` VMs therefore wastes ``(k-1) * ev_t``
of incoming bandwidth -- the effect Stage 2's optimizations fight.

All bandwidth quantities on this class are kept in **bytes per time
unit** (event rate x message size) so the capacity constraint ``bw_b <=
BC`` can be checked directly against the byte-denominated VM capacity
of the pricing catalog.

Columnar store
--------------
A placement is stored once, in append-only ``array.array`` columns and
tables of fixed-width rows, and two int-keyed dicts.  Whole-array code
reads the columns through NumPy copies or views that die within the
call: an ``array.array`` cannot grow while a view of it is alive.

* per VM, ``out`` and ``in`` byte columns:
  :meth:`Placement.used_bytes_array` is ``out + in``, the expression
  :attr:`VirtualMachine.used_bytes` evaluates;
* groups ``(vm, topic, count, prev)``, one per (vm, topic) in
  first-appearance (:meth:`Placement.iter_assignments`) order; ``prev``
  chains a topic's groups, so its hosting VMs are one walk away;
* chunks ``(group, array, lo, hi)``: a log of adopted read-only
  subscriber arrays, a chunk being ``arrays[array][lo:hi]``;
* ``vm * num_topics + topic -> group`` and ``topic -> newest group``.

:meth:`Placement.new_vms`, :meth:`Placement.assign_range`,
:meth:`Placement.assign_groups` and :meth:`Placement.from_pair_arrays`
only work out what to append; the one private primitive
``Placement._append`` writes it.  Pairs are never removed.
:class:`VirtualMachine` is a read-only view over ``(placement, index)``.

Exactness
---------
Packers and validators compare VM bytes bit for bit with the loop
referees, so every path reproduces the sequential accounting: a VM's
outgoing bytes are ``0.0 + tb_1 n_1 + tb_2 n_2 + ...`` added left to
right in append order, its incoming bytes ``0.0 + tb_1 + tb_2 + ...``.
:meth:`Placement.assign_range` does those ``+=`` one group at a time;
:meth:`Placement.assign_groups` takes them as ``np.cumsum`` prefixes (a
strictly left-to-right accumulate); and
:meth:`Placement.from_pair_arrays` takes them as
``np.bincount(g_vm, weights=...)``, which adds the weights into their
bins in input order -- the same additions, in the same order, as one
``assign_range`` per group.  ``np.sum`` or ``np.add.reduceat`` would
add pairwise and change the last bits.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .pairs import PairSelection
from .workload import Workload

__all__ = [
    "VirtualMachine",
    "Placement",
    "CapacityError",
    "CAPACITY_SLACK",
    "pairs_that_fit",
]

#: Absolute slack, in bytes, of every capacity fit test: pairs fit when
#: their bytes are ``<= free + CAPACITY_SLACK``.
CAPACITY_SLACK = 1e-9


def pairs_that_fit(free: float, topic_bytes: float, new_topic: bool) -> int:
    """How many pairs of a topic fit in ``free`` bytes.

    ``new_topic`` charges the one-off incoming copy.  The count is
    ``floor(budget / topic_bytes)`` of the remaining budget, lowered
    while it fails the exact test of :meth:`VirtualMachine.fits` and
    :meth:`Placement.assign_range`, ``topic_bytes * (n + new) <= free
    + CAPACITY_SLACK``: the budget's subtraction and the product round
    separately, so at a rounding edge the floor can be one too many.
    Returns 0 when the budget is below one pair.
    """
    limit = free + CAPACITY_SLACK
    budget = limit - topic_bytes if new_topic else limit
    if budget < topic_bytes:
        return 0
    n = int(budget // topic_bytes)
    new = 1 if new_topic else 0
    # repolint: allow(VL01): runs once per pair the rounding overshoots by, not per pair placed
    while n > 0 and topic_bytes * (n + new) > limit:
        n -= 1
    return n

# Column offsets in the group and chunk tables (4-wide rows).
_VM, _TOPIC, _COUNT, _PREV = range(4)
_GROUP, _ARRAY, _LO, _HI = range(4)


class CapacityError(ValueError):
    """Raised when an assignment would exceed a VM's bandwidth capacity."""


def _rows(table: array, width: int) -> np.ndarray:
    """A NumPy copy of ``table`` as ``(rows, width)``."""
    return np.array(table).reshape(-1, width)


def _extend(table: array, *columns: np.ndarray) -> None:
    """Append rows to ``table``, given column by column."""
    table.frombytes(np.array(columns, dtype=table.typecode).tobytes(order="F"))


class VirtualMachine:
    """Read-only view of one VM of a :class:`Placement`.

    Reads the VM's accounting -- outgoing/incoming byte rates and
    per-topic pair counts -- from the placement's tables; mutate through
    the placement.
    """

    __slots__ = ("_placement", "_index")

    def __init__(self, placement: "Placement", index: int) -> None:
        self._placement = placement
        self._index = index

    # -- accounting ----------------------------------------------------
    @property
    def outgoing_bytes(self) -> float:
        """Outgoing byte rate (one copy per assigned pair)."""
        return self._placement._out[self._index]

    @property
    def incoming_bytes(self) -> float:
        """Incoming byte rate (one copy per distinct hosted topic)."""
        return self._placement._in[self._index]

    @property
    def used_bytes(self) -> float:
        """``bw_b`` -- total (incoming + outgoing) byte rate."""
        p, i = self._placement, self._index
        return p._out[i] + p._in[i]

    @property
    def free_bytes(self) -> float:
        """Remaining capacity ``BC - bw_b``."""
        return self._placement.capacity_bytes - self.used_bytes

    @property
    def topics(self) -> List[int]:
        """Distinct topics hosted on this VM, in first-host order."""
        return self._placement.vm_topics(self._index)

    @property
    def num_pairs(self) -> int:
        """Number of pairs assigned to this VM."""
        groups = _rows(self._placement._groups, 4)
        return int(groups[groups[:, _VM] == self._index, _COUNT].sum())

    def pair_count(self, topic: int) -> int:
        """Number of pairs of ``topic`` on this VM."""
        p = self._placement
        g = p._group_of.get(self._index * p._num_topics + topic)
        return 0 if g is None else p._groups[4 * g + _COUNT]

    def hosts_topic(self, topic: int) -> bool:
        """Whether the topic's event stream is ingested by this VM."""
        p = self._placement
        return self._index * p._num_topics + topic in p._group_of

    # -- fit tests -----------------------------------------------------
    def addition_cost_bytes(self, topic_bytes: float, count: int, new_topic: bool) -> float:
        """Byte-rate delta of adding ``count`` pairs of a topic.

        ``topic_bytes`` is ``ev_t * message_size``; ``new_topic`` says
        whether this VM would start ingesting the topic (one extra
        incoming copy).
        """
        return topic_bytes * (count + (1 if new_topic else 0))

    def fits(self, topic_bytes: float, count: int, new_topic: bool) -> bool:
        """Whether ``count`` pairs of a topic fit in the free capacity."""
        return (
            self.addition_cost_bytes(topic_bytes, count, new_topic)
            <= self.free_bytes + CAPACITY_SLACK
        )

    def max_new_pairs(self, topic_bytes: float, already_hosted: bool) -> int:
        """Largest number of pairs of a topic this VM can still accept.

        Accounts for the one-off incoming copy if the topic is not yet
        hosted here.  Returns 0 when not even a single pair fits; the
        count always passes :meth:`fits` (see :func:`pairs_that_fit`).
        """
        return pairs_that_fit(self.free_bytes, topic_bytes, not already_hosted)


class Placement:
    """A complete assignment of selected pairs to a VM fleet.

    Stage-2 algorithms build a placement incrementally through
    :meth:`assign` / :meth:`assign_range` / :meth:`assign_groups` /
    :meth:`new_vm`; analysis code reads the aggregate properties.  See
    the module docstring for the columnar store behind both.
    """

    def __init__(self, workload: Workload, capacity_bytes: float) -> None:
        if capacity_bytes <= 0:
            raise ValueError("VM capacity must be positive")
        self.workload = workload
        self.capacity_bytes = float(capacity_bytes)
        self._num_topics = workload.num_topics
        self._out = array("d")
        self._in = array("d")
        self._groups = array("q")
        self._chunks = array("q")
        self._arrays: List[np.ndarray] = []
        self._group_of: Dict[int, int] = {}
        self._last_host: Dict[int, int] = {}
        self._num_pairs = 0
        # assignment_arrays() and group offsets, keyed by len(_arrays).
        self._flat_cache: Optional[Tuple[int, Tuple[np.ndarray, ...], np.ndarray]] = None

    def _append(
        self, vm_bytes, at=None, vm=None, topics=None, subscribers=None, lo=0, hi=0
    ) -> None:
        """The store's one mutation (capacity checks are the callers').

        Appends one VM per entry of the ``vm_bytes = (out, in)`` arrays,
        or with ``at`` sets that VM's ``(out, in)``.  Then logs the chunks
        ``subscribers[lo:hi]`` (a read-only array) of ``topics`` on
        ``vm``: a scalar topic extends its group if it exists; an array
        opens one new group per entry.
        """
        if at is None:
            _extend(self._out, vm_bytes[0])
            _extend(self._in, vm_bytes[1])
        else:
            self._out[at], self._in[at] = vm_bytes
        if subscribers is None:
            return
        self._arrays.append(subscribers)
        src = len(self._arrays) - 1
        groups = self._groups
        first = len(groups) // 4
        if isinstance(topics, int):
            key = vm * self._num_topics + topics
            g = self._group_of.get(key)
            if g is None:
                g = first
                groups.fromlist([vm, topics, hi - lo, self._last_host.get(topics, -1)])
                self._group_of[key] = self._last_host[topics] = g
            else:
                groups[4 * g + _COUNT] += hi - lo
            self._chunks.fromlist([g, src, lo, hi])
            self._num_pairs += hi - lo
            return

        k = topics.size
        ids = np.arange(first, first + k, dtype=np.int64)
        vms = np.full(k, vm) if np.ndim(vm) == 0 else vm
        # Chain each new group to its topic's newest group -- or, for a
        # topic that repeats in the batch, to its previous row.
        topic_list, id_list = topics.tolist(), ids.tolist()
        prev = np.fromiter(map(self._last_host.get, topic_list, repeat(-1)), np.int64, k)
        if len(set(topic_list)) < k:
            by_topic = np.argsort(topics, kind="stable")
            again = np.flatnonzero(np.diff(topics[by_topic]) == 0) + 1
            prev[by_topic[again]] = ids[by_topic[again - 1]]
        self._last_host.update(zip(topic_list, id_list))
        self._group_of.update(zip((vms * self._num_topics + topics).tolist(), id_list))
        _extend(groups, vms, topics, hi - lo, prev)
        _extend(self._chunks, ids, np.full(k, src), lo, hi)
        self._num_pairs += int((hi - lo).sum())

    def _vm_index(self, vm_index: int) -> int:
        """``vm_index`` as an index into the fleet (``IndexError`` if none)."""
        if 0 <= vm_index < len(self._out):
            return vm_index
        return range(len(self._out))[vm_index]

    # -- construction ----------------------------------------------------
    @classmethod
    def from_pair_arrays(
        cls,
        workload: Workload,
        capacity_bytes: float,
        vm_ids: np.ndarray,
        topics: np.ndarray,
        subscribers: np.ndarray,
        num_vms: Optional[int] = None,
    ) -> "Placement":
        """Build a placement from flat per-pair arrays in one batch pass.

        ``vm_ids``, ``topics`` and ``subscribers`` are parallel arrays,
        one row per assigned pair; VM indices must be dense in
        ``[0, num_vms)`` (``num_vms`` defaults to ``max(vm_ids) + 1``).
        One ``np.lexsort`` groups the pairs by ``(vm, topic)`` and one
        boundary scan finds the groups; the sorted subscriber array is
        adopted whole, and the VM bytes are two ``np.bincount`` passes,
        bit-identical to one :meth:`assign_range` per group (see the
        module docstring).  The sort is stable: subscribers keep their
        input order inside each group.  Raises :class:`CapacityError`
        if a VM ends up over capacity.

        This is the batch materialization path of the dynamic
        reprovisioner (its per-epoch state is exactly these arrays).
        """
        vm = np.ascontiguousarray(vm_ids, dtype=np.int64)
        t = np.ascontiguousarray(topics, dtype=np.int64)
        v = np.ascontiguousarray(subscribers, dtype=np.int64)
        if not (vm.size == t.size == v.size):
            raise ValueError("vm_ids, topics and subscribers must be parallel")
        placement = cls(workload, capacity_bytes)
        count = int(num_vms) if num_vms is not None else (
            int(vm.max()) + 1 if vm.size else 0
        )
        if vm.size and (int(vm.min()) < 0 or int(vm.max()) >= count):
            raise ValueError(
                f"vm_ids must lie in [0, {count}); got "
                f"[{int(vm.min())}, {int(vm.max())}]"
            )
        order = np.lexsort((t, vm))
        s_vm, s_t, s_v = vm[order], t[order], v[order]
        s_v.setflags(write=False)
        key = s_vm * placement._num_topics + s_t
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        ends = np.flatnonzero(np.diff(key, append=-1)) + 1
        g_vm, g_t = s_vm[starts], s_t[starts]
        tb = workload.event_rates[g_t] * workload.message_size_bytes
        out = np.bincount(g_vm, weights=tb * (ends - starts), minlength=count)
        inc = np.bincount(g_vm, weights=tb, minlength=count)
        over = np.flatnonzero(out + inc > placement.capacity_bytes + CAPACITY_SLACK)
        if over.size:
            raise CapacityError(
                f"VM {int(over[0])} would use {out[over[0]] + inc[over[0]]:.1f} B "
                f"of {placement.capacity_bytes:.1f} B"
            )
        placement._append((out, inc), None, g_vm, g_t, s_v, starts, ends)
        return placement

    def new_vm(self) -> int:
        """Deploy a new empty VM; returns its index."""
        return self.new_vms(1)

    def new_vms(self, count: int) -> int:
        """Deploy ``count`` new empty VMs; returns the first index."""
        if count <= 0:
            raise ValueError("count must be positive")
        first = self.num_vms
        self._append((np.zeros(count), np.zeros(count)))
        return first

    def assign(self, vm_index: int, topic: int, subscribers: Sequence[int]) -> None:
        """Assign pairs ``(topic, v) for v in subscribers`` to a VM."""
        self.assign_range(
            vm_index, topic, np.asarray(list(subscribers), dtype=np.int64)
        )

    def assign_range(
        self, vm_index: int, topic: int, subscribers: np.ndarray
    ) -> None:
        """Batch-assign a flat subscriber array to one VM.

        The array is adopted (not copied) when it is already read-only
        -- the contract of the CSR slices the vectorized packers pass
        -- and defensively copied otherwise.  Accounting is O(1) in the
        number of subscribers: one byte update plus one chunk row.
        Raises :class:`CapacityError`, mutating nothing, if the pairs
        do not fit; callers are expected to check
        :meth:`VirtualMachine.fits` first.
        """
        subs = np.asarray(subscribers, dtype=np.int64)
        if subs.size == 0:
            return
        if subs.flags.writeable:
            subs = subs.copy()
            subs.setflags(write=False)
        topic = int(topic)
        b = self._vm_index(vm_index)
        count = int(subs.size)
        topic_bytes = self.topic_bytes(topic)
        new_topic = b * self._num_topics + topic not in self._group_of
        delta = topic_bytes * (count + (1 if new_topic else 0))
        out, inc = self._out[b], self._in[b]
        free = self.capacity_bytes - (out + inc)
        if delta > free + CAPACITY_SLACK:
            raise CapacityError(
                f"adding {count} pairs of topic {topic} needs {delta:.1f} B "
                f"but only {free:.1f} B free"
            )
        inc = inc + topic_bytes if new_topic else inc
        self._append((out + topic_bytes * count, inc), b, b, topic, subs, 0, count)

    def assign_groups(
        self,
        vm_index: int,
        topics: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        subscribers: np.ndarray,
    ) -> int:
        """Append the longest prefix of topic groups that fits on one VM.

        Group ``k`` is topic ``topics[k]`` with subscribers
        ``subscribers[starts[k]:ends[k]]`` (offsets into one flat
        array, so no per-pair copy is made).  Groups are placed in
        order, each exactly as :meth:`assign_range` would place it,
        until the first one that does not fit; returns how many were
        placed.  The topics must be distinct and not hosted on the VM
        yet (each group charges one incoming copy), else ``ValueError``
        before anything is mutated.  A read-only ``subscribers`` is
        adopted whole; of a writable one, the placed slices are copied
        into one compact array.

        The fit test reproduces the sequential ``fits`` + ``+=``
        accounting bit for bit: the running outgoing and incoming bytes
        are ``np.cumsum`` prefixes of ``[out, tb_1 n_1, tb_2 n_2, ...]``
        and ``[in, tb_1, tb_2, ...]`` -- a strictly left-to-right
        accumulate, the same additions ``+=`` performs one group at a
        time (``np.sum`` would add pairwise and change the last bits)
        -- and group ``k`` fits iff
        ``tb_k (n_k + 1) <= (cap - (out_{k-1} + in_{k-1})) + CAPACITY_SLACK``.
        """
        t = np.asarray(topics, dtype=np.int64)
        if t.size == 0:
            return 0
        lo = np.asarray(starts, dtype=np.int64)
        hi = np.asarray(ends, dtype=np.int64)
        b = self._vm_index(vm_index)
        keys = (b * self._num_topics + t).tolist()
        if len(set(keys)) != t.size or not self._group_of.keys().isdisjoint(keys):
            raise ValueError(
                f"assign_groups needs distinct topics not yet hosted on VM {vm_index}"
            )
        counts = hi - lo
        if (counts <= 0).any():
            raise ValueError("every group must hold at least one subscriber")
        tb = self.workload.event_rates[t] * self.workload.message_size_bytes
        out = np.cumsum(np.concatenate(([self._out[b]], tb * counts)))
        inc = np.cumsum(np.concatenate(([self._in[b]], tb)))
        fits = tb * (counts + 1) <= (
            self.capacity_bytes - (out[:-1] + inc[:-1])
        ) + CAPACITY_SLACK
        placed = t.size if fits.all() else int(np.argmin(fits))
        if placed == 0:
            return 0

        subs = np.asarray(subscribers, dtype=np.int64)
        lo, hi = lo[:placed], hi[:placed]
        if subs.flags.writeable:
            sizes = counts[:placed]
            offsets = np.cumsum(sizes) - sizes
            subs = subs[np.repeat(lo - offsets, sizes) + np.arange(int(sizes.sum()))]
            subs.setflags(write=False)
            lo, hi = offsets, offsets + sizes
        self._append((out[placed], inc[placed]), b, b, t[:placed], subs, lo, hi)
        return placed

    def topic_bytes(self, topic: int) -> float:
        """Byte rate of one copy of a topic's event stream."""
        return self.workload.event_rate(topic) * self.workload.message_size_bytes

    # -- views -----------------------------------------------------------
    @property
    def vms(self) -> Sequence[VirtualMachine]:
        """The VM fleet ``B`` (read-only views)."""
        return tuple(VirtualMachine(self, b) for b in range(self.num_vms))

    def vm(self, vm_index: int) -> VirtualMachine:
        """O(1) access to one VM (no fleet tuple materialization)."""
        return VirtualMachine(self, self._vm_index(vm_index))

    @property
    def num_vms(self) -> int:
        """``|B|``."""
        return len(self._out)

    @property
    def mutations(self) -> int:
        """How many appends placed pairs (each adopts one subscriber array)."""
        return len(self._arrays)

    def used_bytes_array(self) -> np.ndarray:
        """Per-VM ``bw_b = out + in`` as a fresh float64 vector."""
        return np.frombuffer(self._out) + np.frombuffer(self._in)

    def free_bytes_array(self) -> np.ndarray:
        """Per-VM ``BC - bw_b`` as a fresh float64 vector (a snapshot)."""
        used = self.used_bytes_array()
        return np.subtract(self.capacity_bytes, used, out=used)

    def _topic_hosts(self, topic: int) -> List[int]:
        """The VMs hosting ``topic``, newest first (its group chain)."""
        groups, hosts = self._groups, []
        row = 4 * self._last_host.get(int(topic), -1)
        # repolint: allow(VL01): walks one topic's chain -- its replicas, a handful of VMs
        while row >= 0:
            hosts.append(groups[row + _VM])
            row = 4 * groups[row + _PREV]
        return hosts

    def hosts_mask(self, topic: int) -> np.ndarray:
        """Boolean vector over VMs: does VM ``b`` ingest ``topic``?"""
        mask = np.zeros(len(self._out), dtype=bool)
        mask[self._topic_hosts(topic)] = True
        return mask

    def hosting_vms(self, topic: int) -> List[int]:
        """Indices of the VMs ingesting ``topic``, in first-host order."""
        return self._topic_hosts(topic)[::-1]

    def topic_replicas(self, topic: int) -> int:
        """Number of VMs ingesting ``topic`` (replication degree)."""
        return len(self._topic_hosts(topic))

    @property
    def total_bytes(self) -> float:
        """``sum(bw_b)`` in bytes per time unit."""
        return float(self.used_bytes_array().sum())

    @property
    def total_outgoing_bytes(self) -> float:
        """Aggregate outgoing byte rate over the fleet."""
        return sum(self._out)

    @property
    def total_incoming_bytes(self) -> float:
        """Aggregate incoming byte rate over the fleet."""
        return sum(self._in)

    @property
    def num_pairs(self) -> int:
        """Total number of assigned pairs."""
        return self._num_pairs

    def vm_topics(self, vm_index: int) -> List[int]:
        """Distinct topics hosted on a VM, in first-host order."""
        groups = _rows(self._groups, 4)
        return groups[groups[:, _VM] == self._vm_index(vm_index), _TOPIC].tolist()

    def members(self, vm_index: int, topic: int) -> List[int]:
        """Subscribers of ``topic`` served from VM ``vm_index``."""
        g = self._group_of.get(vm_index * self._num_topics + topic)
        if g is None:
            return []
        _, _, sizes, subscribers = self.assignment_arrays()
        start = self._flat_cache[2][g]
        return subscribers[start:start + sizes[g]].tolist()

    def iter_assignments(self) -> Iterator[Tuple[int, int, List[int]]]:
        """Yield ``(vm_index, topic, subscribers)`` triples, one per
        (vm, topic) group in first-appearance order."""
        vm_ids, topics, sizes, subscribers = self.assignment_arrays()
        offsets = self._flat_cache[2]
        # repolint: allow(VL01): the contract is one (vm, topic, subscribers) triple per group
        for b, t, start, size in zip(
            vm_ids.tolist(), topics.tolist(), offsets.tolist(), sizes.tolist()
        ):
            yield b, t, subscribers[start:start + size].tolist()

    def assignment_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The assignments as flat arrays (vectorized-validator view).

        Returns ``(vm_ids, topics, sizes, subscribers)``: one entry per
        (vm, topic) group in :meth:`iter_assignments` order, read off
        the group table, plus the group-major subscriber ids
        (read-only): one concatenate over the runs of the chunk log --
        for a placement built by :meth:`from_pair_arrays`, the adopted
        array itself.  Cached, with each group's offset, until the next
        append.
        """
        if self._flat_cache is not None and self._flat_cache[0] == len(self._arrays):
            return self._flat_cache[1]
        groups = _rows(self._groups, 4)
        chunks = _rows(self._chunks, 4)
        # Order the log group-major (stably: a group's chunks keep their
        # append order) and take one slice per run continuing one array.
        chunks = chunks[np.argsort(chunks[:, _GROUP], kind="stable")]
        head = np.ones(len(chunks), dtype=bool)
        head[1:] = (chunks[1:, _ARRAY] != chunks[:-1, _ARRAY]) | (
            chunks[1:, _LO] != chunks[:-1, _HI]
        )
        spans = zip(
            chunks[head, _ARRAY].tolist(),
            chunks[head, _LO].tolist(),
            chunks[np.roll(head, -1), _HI].tolist(),
        )
        runs = [self._arrays[a][lo:hi] for a, lo, hi in spans]
        empty = [np.empty(0, dtype=np.int64)]
        subscribers = runs[0] if len(runs) == 1 else np.concatenate(runs + empty)
        subscribers.setflags(write=False)
        sizes = groups[:, _COUNT].copy()
        flat = (groups[:, _VM].copy(), groups[:, _TOPIC].copy(), sizes, subscribers)
        self._flat_cache = (len(self._arrays), flat, np.cumsum(sizes) - sizes)
        return flat

    def _distinct_pairs(self, by_subscriber: bool) -> Tuple[np.ndarray, np.ndarray]:
        """The distinct pairs as sorted ``(topics, subscribers)``, or as
        sorted ``(subscribers, topics)`` when ``by_subscriber``."""
        _, topics, sizes, subscribers = self.assignment_arrays()
        major, minor = np.repeat(topics, sizes), subscribers
        if by_subscriber:
            major, minor = minor, major
        span = int(minor.max()) + 1 if minor.size else 1
        keys = np.unique(major * span + minor)
        return keys // span, keys % span

    def topics_by_subscriber(self) -> Dict[int, List[int]]:
        """``subscriber -> distinct topics delivered`` over the fleet.

        A pair assigned to several VMs (allowed by Equation (3)'s
        ``max_b``) counts once.  Subscribers come in ascending order,
        each with its topics sorted.
        """
        v, t = self._distinct_pairs(by_subscriber=True)
        subs, starts = np.unique(v, return_index=True)
        ends, t = np.append(starts[1:], v.size).tolist(), t.tolist()
        return {s: t[a:z] for s, a, z in zip(subs.tolist(), starts.tolist(), ends)}

    def to_selection(self) -> PairSelection:
        """Collapse the placement back into the distinct pair set."""
        topics, subscribers = self._distinct_pairs(by_subscriber=False)
        return PairSelection.from_csr(topics, None, subscribers, trusted=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Placement(vms={self.num_vms}, pairs={self.num_pairs}, "
            f"bytes={self.total_bytes:.0f})"
        )
