"""Unit tests for repro.core.pairs (PairSelection)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PairSelection, Workload


class TestFromCsr:
    """The one array-construction entry point (both arms + validation)."""

    def test_csr_triple(self):
        sel = PairSelection.from_csr(
            np.array([3, 0], dtype=np.int64),
            np.array([0, 2, 3], dtype=np.int64),
            np.array([1, 4, 2], dtype=np.int64),
        )
        assert sel.num_pairs == 3
        assert list(sel.topics) == [3, 0]  # insertion order preserved
        assert sel.subscribers_of(3).tolist() == [1, 4]
        assert sel.subscribers_of(0).tolist() == [2]

    def test_trusted_adopts_without_copy(self):
        topics = np.array([1], dtype=np.int64)
        indptr = np.array([0, 2], dtype=np.int64)
        subs = np.array([5, 6], dtype=np.int64)
        sel = PairSelection.from_csr(topics, indptr, subs, trusted=True)
        t, i, s = sel.csr_arrays()
        assert t is topics and i is indptr and s is subs
        assert not s.flags.writeable  # frozen in place

    def test_flat_pair_arm_groups_by_topic(self):
        # indptr=None: parallel per-pair arrays, grouped by ascending
        # topic id, input order preserved within each group.
        sel = PairSelection.from_csr(
            np.array([4, 1, 4, 1], dtype=np.int64),
            None,
            np.array([7, 0, 2, 9], dtype=np.int64),
        )
        assert list(sel.topics) == [1, 4]
        assert sel.subscribers_of(1).tolist() == [0, 9]
        assert sel.subscribers_of(4).tolist() == [7, 2]

    def test_flat_pair_arm_empty(self):
        sel = PairSelection.from_csr(
            np.empty(0, dtype=np.int64), None, np.empty(0, dtype=np.int64)
        )
        assert sel.num_pairs == 0

    def test_flat_pair_arm_length_mismatch(self):
        with pytest.raises(ValueError, match="parallel"):
            PairSelection.from_csr(
                np.array([1, 2], dtype=np.int64), None, np.array([0], dtype=np.int64)
            )

    def test_validation_rejects_bad_indptr(self):
        with pytest.raises(ValueError, match="indptr"):
            PairSelection.from_csr(
                np.array([0], dtype=np.int64),
                np.array([1, 2], dtype=np.int64),
                np.array([0], dtype=np.int64),
            )
        with pytest.raises(ValueError, match="strictly increasing"):
            PairSelection.from_csr(
                np.array([0, 1], dtype=np.int64),
                np.array([0, 1, 1], dtype=np.int64),
                np.array([0], dtype=np.int64),
            )

    def test_validation_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="indptr\\[-1\\]"):
            PairSelection.from_csr(
                np.array([0], dtype=np.int64),
                np.array([0, 2], dtype=np.int64),
                np.array([0], dtype=np.int64),
            )

    def test_validation_rejects_duplicate_topics(self):
        with pytest.raises(ValueError, match="distinct"):
            PairSelection.from_csr(
                np.array([1, 1], dtype=np.int64),
                np.array([0, 1, 2], dtype=np.int64),
                np.array([0, 1], dtype=np.int64),
            )

    def test_validation_rejects_duplicate_subscribers(self):
        with pytest.raises(ValueError, match="duplicate"):
            PairSelection.from_csr(
                np.array([4], dtype=np.int64),
                np.array([0, 2], dtype=np.int64),
                np.array([3, 3], dtype=np.int64),
            )

    def test_duplicate_message_names_the_first_offending_group(self):
        # Unsorted groups take the composite-key sort; both later groups
        # repeat a subscriber, and the message names the first one.
        with pytest.raises(ValueError, match=r"^duplicate subscribers for topic 2$"):
            PairSelection.from_csr(
                np.array([7, 2, 5], dtype=np.int64),
                np.array([0, 2, 5, 8], dtype=np.int64),
                np.array([9, 1, 4, 0, 4, 6, 3, 6], dtype=np.int64),
            )

    def test_duplicate_check_with_sparse_subscriber_ids(self):
        # Composite keys group * span would overflow int64 here.
        big = 2**62 + 1
        topics = np.array([0, 1], dtype=np.int64)
        indptr = np.array([0, 2, 5], dtype=np.int64)
        ok = PairSelection.from_csr(
            topics, indptr, np.array([big, 0, 0, big, 5], dtype=np.int64)
        )
        assert ok.num_pairs == 5
        with pytest.raises(ValueError, match=r"^duplicate subscribers for topic 1$"):
            PairSelection.from_csr(
                topics, indptr, np.array([big, 0, big, 0, big], dtype=np.int64)
            )



def _shuffled_unique_pairs(seed: int):
    """Distinct (topic, subscriber) pairs in random order."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 30, size=150) * 1000 + rng.integers(0, 1000, size=150)
    keys = np.unique(keys)
    rng.shuffle(keys)
    return keys // 1000, keys % 1000


class TestFlatPairArm:
    """``from_csr(topics, None, subscribers)`` on randomized pair lists."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_mapping_constructor(self, seed):
        topics, subs = _shuffled_unique_pairs(seed)
        want = PairSelection.from_pairs(zip(topics.tolist(), subs.tolist()))
        assert PairSelection.from_csr(topics, None, subs) == want
        assert PairSelection.from_csr(topics, None, subs, trusted=True) == want

    def test_pair_arrays_roundtrip(self):
        topics, subs = _shuffled_unique_pairs(11)
        sel = PairSelection.from_csr(topics, None, subs)
        t, v = sel.pair_arrays()
        assert PairSelection.from_csr(t, None, v) == sel
        assert list(sel.topics) == sorted(set(topics.tolist()))

    def test_duplicate_pair_rejected(self):
        topics = np.array([2, 5, 2], dtype=np.int64)
        subs = np.array([7, 7, 7], dtype=np.int64)
        with pytest.raises(ValueError, match="duplicate"):
            PairSelection.from_csr(topics, None, subs)


class TestConstruction:
    def test_from_mapping(self):
        sel = PairSelection({0: [1, 2], 3: [0]})
        assert sel.num_pairs == 3
        assert sel.num_topics == 2
        assert sorted(sel.topics) == [0, 3]

    def test_empty_groups_dropped(self):
        sel = PairSelection({0: [], 1: [2]})
        assert sel.num_topics == 1
        assert (1, 2) in sel

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PairSelection({0: [1, 1]})

    def test_from_pairs(self):
        sel = PairSelection.from_pairs([(0, 1), (0, 2), (5, 1)])
        assert sel.pair_count(0) == 2
        assert sel.pair_count(5) == 1

    def test_from_subscriber_topics(self):
        sel = PairSelection.from_subscriber_topics({1: [0, 5], 2: [0]})
        assert sel.subscribers_of(0).tolist() == [1, 2]
        assert sel.subscribers_of(5).tolist() == [1]

    def test_full(self, tiny_workload):
        sel = PairSelection.full(tiny_workload)
        assert sel.num_pairs == tiny_workload.num_pairs
        assert set(sel) == set(tiny_workload.iter_pairs())


class TestViews:
    def test_contains(self):
        sel = PairSelection({0: [1]})
        assert (0, 1) in sel
        assert (0, 2) not in sel
        assert (1, 1) not in sel

    def test_len_and_iter(self):
        sel = PairSelection({0: [1, 2], 1: [3]})
        assert len(sel) == 3
        assert set(sel) == {(0, 1), (0, 2), (1, 3)}

    def test_missing_topic_empty_array(self):
        sel = PairSelection({0: [1]})
        assert sel.subscribers_of(9).size == 0
        assert sel.pair_count(9) == 0

    def test_equality_ignores_order(self):
        a = PairSelection({0: [2, 1]})
        b = PairSelection({0: [1, 2]})
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        assert PairSelection({0: [1]}) != PairSelection({0: [2]})
        assert PairSelection({0: [1]}) != PairSelection({1: [1]})

    def test_lazy_positions_equal_eager(self):
        # The topic -> group index is built on first lookup; a selection
        # that never built it compares, hashes and answers lookups like
        # one that did.
        topics = np.asarray([5, 1, 3], dtype=np.int64)
        indptr = np.asarray([0, 2, 3, 5], dtype=np.int64)
        subs = np.asarray([4, 0, 2, 1, 0], dtype=np.int64)
        lazy = PairSelection.from_csr(topics, indptr, subs, trusted=True)
        eager = PairSelection.from_csr(topics, indptr, subs, trusted=True)
        eager.subscribers_of(5)
        assert lazy._topic_pos is None and eager._topic_pos is not None
        assert lazy == eager and eager == lazy
        assert lazy == PairSelection({1: [2], 3: [0, 1], 5: [0, 4]})
        assert hash(lazy) == hash(eager)
        assert PairSelection.from_csr(topics, indptr, subs, trusted=True) != (
            PairSelection({1: [2], 3: [0, 1], 5: [0, 3]})
        )
        fresh = PairSelection.from_csr(topics, indptr, subs, trusted=True)
        assert fresh.pair_count(3) == 2 and fresh.pair_count(4) == 0
        assert fresh.subscribers_of(5).tolist() == [4, 0]

    def test_topics_by_subscriber_roundtrip(self):
        sel = PairSelection({0: [1, 2], 1: [1]})
        inverted = sel.topics_by_subscriber()
        assert inverted == {1: [0, 1], 2: [0]}
        assert PairSelection.from_subscriber_topics(inverted) == sel


class TestBandwidth:
    def test_outgoing_rate(self, tiny_workload):
        sel = PairSelection({0: [0, 1], 1: [2]})
        assert sel.outgoing_rate(tiny_workload) == 2 * 20 + 10

    def test_incoming_rate_counts_topics_once(self, tiny_workload):
        sel = PairSelection({0: [0, 1], 1: [2]})
        assert sel.incoming_rate(tiny_workload) == 30

    def test_single_vm_totals(self, tiny_workload):
        sel = PairSelection.full(tiny_workload)
        # outgoing 2*20 + 3*10 = 70, incoming 30 -> 100 events, 1 B each
        assert sel.single_vm_rate(tiny_workload) == 100
        assert sel.single_vm_bytes(tiny_workload) == 100

    def test_message_size_scales_bytes(self, tiny_workload):
        sel = PairSelection.full(tiny_workload)
        w2 = tiny_workload.with_message_size(200.0)
        assert sel.single_vm_bytes(w2) == 100 * 200
