"""Unit tests for repro.core.placement (Placement and its VM views)."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.core import CapacityError, Placement, Workload


def _one_vm(capacity):
    """A one-VM placement over topics of 10, 5 and 1 B per event copy."""
    w = Workload([10.0, 5.0, 1.0], [[0, 1, 2]] * 4, message_size_bytes=1.0)
    p = Placement(w, capacity)
    return p, p.new_vm()


class TestVirtualMachineView:
    """The per-VM accounting and fit tests, read through Placement.vm."""

    def test_initial_state(self):
        p, b = _one_vm(100.0)
        vm = p.vm(b)
        assert vm.used_bytes == 0
        assert vm.free_bytes == 100.0
        assert vm.num_pairs == 0

    def test_assign_accounting(self):
        p, b = _one_vm(100.0)
        p.assign(b, 0, [0, 1, 2])
        vm = p.vm(b)
        # 3 outgoing copies + 1 incoming copy = 40 bytes.
        assert vm.outgoing_bytes == 30.0
        assert vm.incoming_bytes == 10.0
        assert vm.used_bytes == 40.0
        assert vm.pair_count(0) == 3
        assert vm.pair_count(1) == 0
        assert vm.num_pairs == 3
        assert vm.hosts_topic(0) and not vm.hosts_topic(1)

    def test_second_batch_same_topic_no_extra_ingest(self):
        p, b = _one_vm(100.0)
        p.assign(b, 0, [0, 1])
        p.assign(b, 0, [2])
        assert p.vm(b).incoming_bytes == 10.0
        assert p.vm(b).outgoing_bytes == 30.0
        assert p.vm(b).pair_count(0) == 3

    def test_different_topics_ingest_separately(self):
        p, b = _one_vm(100.0)
        p.assign(b, 1, [0])
        p.assign(b, 0, [0])
        assert p.vm(b).incoming_bytes == 15.0
        assert p.vm(b).topics == [1, 0]  # first-host order

    def test_capacity_enforced(self):
        p, b = _one_vm(30.0)
        with pytest.raises(CapacityError):
            p.assign(b, 0, [0, 1, 2])  # needs 40
        assert p.vm(b).used_bytes == 0.0 and p.num_pairs == 0

    def test_exact_fill_allowed(self):
        p, b = _one_vm(40.0)
        p.assign(b, 0, [0, 1, 2])  # exactly 40
        assert p.vm(b).free_bytes == pytest.approx(0.0)

    def test_zero_count_group_rejected(self):
        p, b = _one_vm(100.0)
        flat = np.asarray([0, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="at least one"):
            p.assign_groups(b, np.asarray([0, 1]), np.asarray([0, 1]), np.asarray([1, 1]), flat)
        assert p.num_pairs == 0

    def test_fits_accounts_for_new_topic(self):
        p, b = _one_vm(25.0)
        vm = p.vm(b)
        assert vm.fits(10.0, 1, new_topic=True)  # 20 <= 25
        assert not vm.fits(10.0, 2, new_topic=True)  # 30 > 25
        p.assign(b, 0, [0])
        assert not vm.fits(10.0, 1, new_topic=True)  # 20 > 5 free
        # Existing topic: only the outgoing copy is charged... still no.
        assert not vm.fits(10.0, 1, new_topic=False)

    def test_max_new_pairs_new_topic(self):
        p, b = _one_vm(35.0)
        # Ingest eats 10, leaving 25 -> 2 pairs of 10.
        assert p.vm(b).max_new_pairs(10.0, already_hosted=False) == 2

    def test_max_new_pairs_hosted_topic(self):
        p, b = _one_vm(35.0)
        p.assign(b, 0, [0])  # uses 20
        assert p.vm(b).max_new_pairs(10.0, already_hosted=True) == 1

    def test_max_new_pairs_zero_when_too_full(self):
        p, b = _one_vm(15.0)
        assert p.vm(b).max_new_pairs(10.0, already_hosted=False) == 0

    def test_max_new_pairs_agrees_with_fits_at_a_rounding_edge(self):
        # The floor of the rounded budget is 4 here, but 4 pairs plus
        # the ingest copy exceed the exact fit test: CBP's _fill_vm and
        # the cbp-loop referee used to raise CapacityError on it.
        w = Workload([2.1347104300198896, 2.0592506423356225], [[0, 1]] * 4, 1.0)
        p = Placement(w, 20.96980536077756)
        b = p.new_vm()
        p.assign(b, 0, [0, 1, 2, 3])
        n = p.vm(b).max_new_pairs(p.topic_bytes(1), already_hosted=False)
        assert n == 3
        assert p.vm(b).fits(p.topic_bytes(1), n, new_topic=True)
        assert not p.vm(b).fits(p.topic_bytes(1), n + 1, new_topic=True)
        p.assign(b, 1, [0, 1, 2])

    def test_addition_cost(self):
        p, b = _one_vm(100.0)
        assert p.vm(b).addition_cost_bytes(10.0, 2, new_topic=True) == 30.0
        assert p.vm(b).addition_cost_bytes(10.0, 2, new_topic=False) == 20.0

    def test_vm_index_bounds(self):
        p, b = _one_vm(100.0)
        assert p.vm(-1).used_bytes == p.vm(b).used_bytes  # list-style indexing
        with pytest.raises(IndexError):
            p.vm(1)
        with pytest.raises(IndexError):
            p.assign(1, 0, [0])


class TestPlacement:
    def test_new_vm_indexing(self, tiny_workload):
        p = Placement(tiny_workload, capacity_bytes=100.0)
        assert p.new_vm() == 0
        assert p.new_vm() == 1
        assert p.num_vms == 2

    def test_assign_and_members(self, tiny_workload):
        p = Placement(tiny_workload, 100.0)
        b = p.new_vm()
        p.assign(b, 0, [0, 1])
        assert p.members(b, 0) == [0, 1]
        assert p.vm_topics(b) == [0]
        assert p.num_pairs == 2

    def test_assign_empty_is_noop(self, tiny_workload):
        p = Placement(tiny_workload, 100.0)
        b = p.new_vm()
        p.assign(b, 0, [])
        assert p.num_pairs == 0

    def test_topic_bytes_uses_message_size(self):
        w = Workload([2.0], [[0]], message_size_bytes=100.0)
        p = Placement(w, 1e6)
        assert p.topic_bytes(0) == 200.0

    def test_totals(self, tiny_workload):
        p = Placement(tiny_workload, 100.0)
        a, b = p.new_vm(), p.new_vm()
        p.assign(a, 0, [0, 1])  # out 40, in 20
        p.assign(b, 1, [0, 1, 2])  # out 30, in 10
        assert p.total_outgoing_bytes == 70.0
        assert p.total_incoming_bytes == 30.0
        assert p.total_bytes == 100.0

    def test_split_topic_duplicates_ingest(self, tiny_workload):
        p = Placement(tiny_workload, 100.0)
        a, b = p.new_vm(), p.new_vm()
        p.assign(a, 1, [0])
        p.assign(b, 1, [1, 2])
        # Ingest paid on both VMs: the Section II-A replication effect.
        assert p.total_incoming_bytes == 20.0
        assert p.topic_replicas(1) == 2

    def test_topics_by_subscriber_deduplicates(self, tiny_workload):
        p = Placement(tiny_workload, 100.0)
        a, b = p.new_vm(), p.new_vm()
        p.assign(a, 1, [0])
        p.assign(b, 1, [0])  # same pair on two VMs (legal per Eq. 3)
        assert p.topics_by_subscriber() == {0: [1]}

    def test_to_selection_collapses(self, tiny_workload):
        p = Placement(tiny_workload, 100.0)
        a, b = p.new_vm(), p.new_vm()
        p.assign(a, 0, [0])
        p.assign(b, 0, [0, 1])
        sel = p.to_selection()
        assert sel.num_pairs == 2  # (0,0) deduplicated
        assert sel.subscribers_of(0).tolist() == [0, 1]

    def test_iter_assignments(self, tiny_workload):
        p = Placement(tiny_workload, 100.0)
        a = p.new_vm()
        p.assign(a, 0, [0])
        p.assign(a, 1, [2])
        triples = sorted(p.iter_assignments())
        assert triples == [(0, 0, [0]), (0, 1, [2])]

    def test_capacity_propagates(self, tiny_workload):
        p = Placement(tiny_workload, 35.0)
        b = p.new_vm()
        with pytest.raises(CapacityError):
            p.assign(b, 0, [0, 1])  # 2*20 out + 20 in = 60 > 35

    def test_invalid_capacity(self, tiny_workload):
        with pytest.raises(ValueError):
            Placement(tiny_workload, 0)


class TestFromPairArrays:
    def test_matches_incremental_construction(self, tiny_workload):
        manual = Placement(tiny_workload, 200.0)
        a, b = manual.new_vm(), manual.new_vm()
        manual.assign(a, 0, [0, 1])
        manual.assign(a, 1, [0])
        manual.assign(b, 1, [1, 2])
        batch = Placement.from_pair_arrays(
            tiny_workload,
            200.0,
            np.asarray([0, 0, 0, 1, 1]),
            np.asarray([0, 0, 1, 1, 1]),
            np.asarray([0, 1, 0, 1, 2]),
        )
        assert batch.num_vms == manual.num_vms
        assert sorted(batch.iter_assignments()) == sorted(manual.iter_assignments())
        assert batch.total_bytes == pytest.approx(manual.total_bytes)

    def test_empty_and_trailing_vms(self, tiny_workload):
        empty = Placement.from_pair_arrays(
            tiny_workload, 100.0,
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64),
        )
        assert empty.num_vms == 0 and empty.num_pairs == 0
        padded = Placement.from_pair_arrays(
            tiny_workload, 100.0,
            np.asarray([0]), np.asarray([1]), np.asarray([2]), num_vms=3,
        )
        assert padded.num_vms == 3
        assert padded.vm(1).num_pairs == 0

    def test_hosting_order_and_chains(self, tiny_workload):
        # Groups sorted by (vm, topic): topic 1 is first hosted on VM 0.
        p = Placement.from_pair_arrays(
            tiny_workload, 200.0,
            np.asarray([2, 0, 1, 2, 0]),
            np.asarray([1, 1, 0, 0, 0]),
            np.asarray([0, 1, 2, 1, 0]),
        )
        assert p.hosting_vms(0) == [0, 1, 2]
        assert p.hosting_vms(1) == [0, 2]
        assert p.topic_replicas(0) == 3
        assert p.vm_topics(0) == [0, 1]
        assert p.hosts_mask(1).tolist() == [True, False, True]
        # A later append extends the chains in first-host order.
        p.new_vm()
        p.assign(3, 1, [2])
        assert p.hosting_vms(1) == [0, 2, 3]

    def test_over_capacity_rejected(self, tiny_workload):
        # Two topic-0 pairs on one VM: 2 * 20 out + 20 in = 60 B.
        with pytest.raises(CapacityError):
            Placement.from_pair_arrays(
                tiny_workload, 59.0,
                np.asarray([0, 0]), np.asarray([0, 0]), np.asarray([0, 1]),
            )
        exact = Placement.from_pair_arrays(
            tiny_workload, 60.0,
            np.asarray([0, 0]), np.asarray([0, 0]), np.asarray([0, 1]),
        )
        assert exact.vm(0).free_bytes == 0.0

    def test_leaves_no_per_group_objects(self):
        # The store is columns and int-keyed dicts: materializing
        # thousands of groups leaves O(VMs) new GC-tracked objects (the
        # per-(vm, topic) design left two per group).
        rng = np.random.default_rng(5)
        num_topics, num_vms = 700, 40
        w = Workload(rng.integers(1, 50, num_topics).astype(float), [[0]], 1.0)
        keys = rng.choice(num_topics * num_vms, 2500, replace=False)
        vm_ids = np.repeat(keys // num_topics, 2)
        topics = np.repeat(keys % num_topics, 2)
        subs = rng.integers(0, 1000, vm_ids.size)
        gc.collect()
        before = len(gc.get_objects())
        p = Placement.from_pair_arrays(w, 1e12, vm_ids, topics, subs, num_vms=num_vms)
        gc.collect()
        left = len(gc.get_objects()) - before
        assert len(list(p.iter_assignments())) == 2500
        assert left <= 2 * p.num_vms + 64, left

    def test_mismatched_arrays_rejected(self, tiny_workload):
        with pytest.raises(ValueError):
            Placement.from_pair_arrays(
                tiny_workload, 100.0,
                np.asarray([0]), np.asarray([1, 1]), np.asarray([2]),
            )

    def test_out_of_range_vm_ids_rejected(self, tiny_workload):
        with pytest.raises(ValueError, match="vm_ids"):
            Placement.from_pair_arrays(
                tiny_workload, 100.0,
                np.asarray([0, 2]), np.asarray([0, 1]), np.asarray([0, 1]),
                num_vms=1,
            )


class TestNewVmsAndAssignRange:
    """The batch entry points the vectorized packers build fleets with."""

    def test_new_vms_returns_first_index_of_a_block(self, tiny_workload):
        p = Placement(tiny_workload, 100.0)
        assert p.new_vms(3) == 0
        assert p.new_vms(2) == 3
        assert p.num_vms == 5
        np.testing.assert_array_equal(p.used_bytes_array(), np.zeros(5))

    def test_new_vms_growth_keeps_used_bytes(self, tiny_workload):
        # Past the initial array buffer: earlier VMs keep their bytes,
        # the fresh block starts empty.
        p = Placement(tiny_workload, 100.0)
        a = p.new_vms(2)
        p.assign(a, 0, [0, 1])
        p.assign(a + 1, 1, [2])
        before = p.used_bytes_array().copy()
        first = p.new_vms(20)
        assert first == 2 and p.num_vms == 22
        used = p.used_bytes_array()
        np.testing.assert_array_equal(used[:2], before)
        np.testing.assert_array_equal(used[2:], np.zeros(20))
        assert p.total_bytes == pytest.approx(before.sum())

    @pytest.mark.parametrize("count", [0, -2])
    def test_new_vms_rejects_non_positive_count(self, tiny_workload, count):
        p = Placement(tiny_workload, 100.0)
        with pytest.raises(ValueError, match="positive"):
            p.new_vms(count)
        assert p.num_vms == 0

    def test_assign_range_matches_assign(self, tiny_workload):
        batch = Placement(tiny_workload, 200.0)
        single = Placement(tiny_workload, 200.0)
        for p in (batch, single):
            p.new_vms(2)
        batch.assign_range(0, 0, np.asarray([0, 1]))
        batch.assign_range(1, 1, np.asarray([2, 0]))
        single.assign(0, 0, [0, 1])
        single.assign(1, 1, [2, 0])
        assert list(batch.iter_assignments()) == list(single.iter_assignments())
        np.testing.assert_array_equal(
            batch.used_bytes_array(), single.used_bytes_array()
        )
        assert batch.num_pairs == single.num_pairs == 4

    def test_assign_range_copies_a_writable_array(self, tiny_workload):
        p = Placement(tiny_workload, 200.0)
        b = p.new_vm()
        subs = np.asarray([0, 2], dtype=np.int64)
        p.assign_range(b, 1, subs)
        subs[0] = 1  # the caller's array stays the caller's
        assert subs.flags.writeable
        assert p.members(b, 1) == [0, 2]

    def test_assign_range_adopts_a_read_only_array(self, tiny_workload):
        p = Placement(tiny_workload, 200.0)
        b = p.new_vm()
        subs = np.asarray([1, 2], dtype=np.int64)
        subs.setflags(write=False)
        p.assign_range(b, 1, subs)
        _, _, _, flat = p.assignment_arrays()
        np.testing.assert_array_equal(flat, subs)
        subs.setflags(write=True)
        subs[0] = 0  # visible through the placement: adopted, not copied
        assert p.members(b, 1) == [0, 2]

    def test_assign_range_empty_is_a_noop(self, tiny_workload):
        p = Placement(tiny_workload, 200.0)
        b = p.new_vm()
        p.assign(b, 0, [0])
        cached = p.assignment_arrays()
        p.assign_range(b, 1, np.empty(0, dtype=np.int64))
        assert p.assignment_arrays() is cached  # no mutation recorded
        assert p.hosting_vms(1) == []
        assert p.num_pairs == 1

    def test_assign_range_refreshes_flat_view(self, tiny_workload):
        p = Placement(tiny_workload, 200.0)
        b = p.new_vm()
        p.assign_range(b, 0, np.asarray([0]))
        vm_ids, topics, sizes, subs = p.assignment_arrays()
        assert sizes.tolist() == [1]
        p.assign_range(b, 1, np.asarray([1, 2]))
        vm_ids, topics, sizes, subs = p.assignment_arrays()
        assert vm_ids.tolist() == [b, b]
        assert topics.tolist() == [0, 1]
        assert sizes.tolist() == [1, 2]
        assert subs.tolist() == [0, 1, 2]

    def test_second_batch_extends_the_group(self, tiny_workload):
        p = Placement(tiny_workload, 200.0)
        b = p.new_vm()
        p.assign_range(b, 1, np.asarray([2]))
        p.assign_range(b, 1, np.asarray([0, 1]))
        assert p.hosting_vms(1) == [b]  # hosted once, not per batch
        assert p.members(b, 1) == [2, 0, 1]  # batch order kept
        # 3 outgoing copies + 1 ingest copy of a 10 B topic.
        assert p.used_bytes_array()[b] == pytest.approx(40.0)

    def test_over_capacity_batch_leaves_placement_unchanged(self, tiny_workload):
        p = Placement(tiny_workload, 50.0)
        b = p.new_vm()
        p.assign_range(b, 1, np.asarray([0]))
        with pytest.raises(CapacityError):
            p.assign_range(b, 0, np.asarray([0, 1]))  # needs 60 B more
        assert p.hosting_vms(0) == []
        assert p.num_pairs == 1
        assert p.used_bytes_array()[b] == pytest.approx(20.0)


class TestAssignGroups:
    """Placement.assign_groups: the longest fitting prefix of topic groups,
    placed exactly as one assign_range per group would place it."""

    @staticmethod
    def _groups():
        # Topics 0..3 at 1, 2, 3, 4 B; groups of 2, 1, 3, 1 subscribers
        # laid out back to back in one flat array.
        w = Workload(
            [1.0, 2.0, 3.0, 4.0], [[0, 1, 2, 3], [0, 2], [0, 2]], message_size_bytes=1.0
        )
        flat = np.asarray([0, 1, 0, 0, 1, 2, 0], dtype=np.int64)
        flat.setflags(write=False)
        topics = np.asarray([0, 1, 2, 3], dtype=np.int64)
        starts = np.asarray([0, 2, 3, 6], dtype=np.int64)
        ends = np.asarray([2, 3, 6, 7], dtype=np.int64)
        return w, flat, topics, starts, ends

    @staticmethod
    def _state(p):
        return (
            list(p.iter_assignments()),
            p.used_bytes_array().tobytes(),
            [
                (vm.outgoing_bytes, vm.incoming_bytes, vm.topics, vm.num_pairs)
                for vm in p.vms
            ],
            [
                [p.vm(b).pair_count(t) for t in range(p.workload.num_topics)]
                for b in range(p.num_vms)
            ],
            tuple(a.tolist() for a in p.assignment_arrays()),
            {t: p.hosting_vms(t) for t in range(p.workload.num_topics)},
            p.num_pairs,
        )

    def test_matches_one_assign_range_per_group(self):
        w, flat, topics, starts, ends = self._groups()
        batch = Placement(w, 100.0)
        single = Placement(w, 100.0)
        for p in (batch, single):
            p.new_vms(2)
            p.assign(0, 3, [1])
        assert batch.assign_groups(0, topics[:3], starts[:3], ends[:3], flat) == 3
        for t, a, b in zip(topics[:3], starts[:3], ends[:3]):
            single.assign_range(0, int(t), flat[a:b])
        assert self._state(batch) == self._state(single)

    def test_stops_at_first_misfit(self):
        # 0: 2 out + 1 in = 3 B; 1: 2 + 2 = 4 B; 2: 9 + 3 = 12 B misfits
        # the 12 B VM; 3 (8 B) would fit after 0 and 1 but is not placed.
        w, flat, topics, starts, ends = self._groups()
        p = Placement(w, 12.0)
        b = p.new_vm()
        assert p.assign_groups(b, topics, starts, ends, flat) == 2
        assert p.vm_topics(b) == [0, 1]
        assert p.hosting_vms(2) == p.hosting_vms(3) == []
        assert p.used_bytes_array()[b] == 7.0
        assert p.num_pairs == 3

    def test_zero_placed_mutates_nothing(self):
        w, flat, topics, starts, ends = self._groups()
        p = Placement(w, 12.0)
        b = p.new_vm()
        p.assign(b, 3, [0])  # 8 B used: topic 2 (12 B) cannot fit
        cached = p.assignment_arrays()
        before = self._state(p)
        assert p.assign_groups(b, topics[2:3], starts[2:3], ends[2:3], flat) == 0
        assert p.assignment_arrays() is cached  # no mutation recorded
        assert self._state(p) == before

    @pytest.mark.parametrize("picked", [[0, 3], [1, 1]])
    def test_rejects_hosted_or_repeated_topic(self, picked):
        # [0, 3]: topic 3 is already hosted; [1, 1]: a repeated topic.
        w, flat, topics, starts, ends = self._groups()
        p = Placement(w, 100.0)
        b = p.new_vm()
        p.assign(b, 3, [1])
        before = self._state(p)
        with pytest.raises(ValueError, match="distinct topics"):
            p.assign_groups(b, topics[picked], starts[picked], ends[picked], flat)
        assert self._state(p) == before

    def test_adopts_read_only_and_copies_writable(self):
        w, flat, topics, starts, ends = self._groups()
        owned = flat.copy()  # owns its buffer, so it can be unlocked again
        owned.setflags(write=False)
        adopted = Placement(w, 100.0)
        adopted.new_vm()
        adopted.assign_groups(0, topics[:2], starts[:2], ends[:2], owned)
        owned.setflags(write=True)
        owned[0] = 3  # visible through the placement: adopted, not copied
        assert adopted.members(0, 0) == [3, 1]

        writable = flat.copy()
        copied = Placement(w, 100.0)
        copied.new_vm()
        copied.assign_groups(0, topics[:2], starts[:2], ends[:2], writable)
        writable[:] = -1  # the caller's array stays the caller's
        assert copied.members(0, 0) == [0, 1]
        assert copied.members(0, 1) == [0]
        assert copied.assignment_arrays()[3].tolist() == [0, 1, 0]
        assert not copied.assignment_arrays()[3].flags.writeable

    def test_invalidates_assignment_arrays_cache(self):
        w, flat, topics, starts, ends = self._groups()
        p = Placement(w, 100.0)
        b = p.new_vm()
        p.assign_range(b, 3, flat[6:7])
        cached = p.assignment_arrays()
        p.assign_groups(b, topics[:2], starts[:2], ends[:2], flat)
        vm_ids, group_topics, sizes, subs = p.assignment_arrays()
        assert p.assignment_arrays() is not cached
        assert group_topics.tolist() == [3, 0, 1]
        assert sizes.tolist() == [1, 2, 1]
        assert subs.tolist() == [0, 0, 1, 0]
