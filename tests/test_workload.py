"""Unit tests for repro.core.workload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Workload, build_workload
from repro.core.workload import WorkloadError


class TestConstruction:
    def test_basic_sizes(self, tiny_workload):
        assert tiny_workload.num_topics == 2
        assert tiny_workload.num_subscribers == 3
        assert tiny_workload.num_pairs == 5

    def test_event_rates_preserved(self, tiny_workload):
        assert tiny_workload.event_rate(0) == 20.0
        assert tiny_workload.event_rate(1) == 10.0

    def test_rates_array_read_only(self, tiny_workload):
        with pytest.raises(ValueError):
            tiny_workload.event_rates[0] = 5.0

    def test_interest_read_only(self, tiny_workload):
        with pytest.raises(ValueError):
            tiny_workload.interest(0)[0] = 1

    def test_zero_rate_rejected(self):
        with pytest.raises(WorkloadError, match="positive"):
            Workload([0.0], [[0]])

    def test_negative_rate_rejected(self):
        with pytest.raises(WorkloadError, match="positive"):
            Workload([-1.0], [[0]])

    def test_bad_topic_reference_rejected(self):
        with pytest.raises(WorkloadError, match="outside"):
            Workload([1.0], [[1]])

    def test_negative_topic_reference_rejected(self):
        with pytest.raises(WorkloadError, match="outside"):
            Workload([1.0], [[-1]])

    def test_duplicate_interest_rejected(self):
        with pytest.raises(WorkloadError, match="duplicate"):
            Workload([1.0, 2.0], [[0, 0]])

    def test_bad_message_size_rejected(self):
        with pytest.raises(WorkloadError, match="message_size"):
            Workload([1.0], [[0]], message_size_bytes=0)

    def test_empty_interest_allowed(self):
        w = Workload([1.0], [[], [0]])
        assert w.interest(0).size == 0
        assert w.num_pairs == 1

    def test_2d_rates_rejected(self):
        with pytest.raises(WorkloadError, match="one-dimensional"):
            Workload([[1.0, 2.0]], [[0]])

    def test_immutable(self, tiny_workload):
        with pytest.raises(AttributeError):
            tiny_workload.num_pairs = 7

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(WorkloadError, match="topic_labels"):
            Workload([1.0], [[0]], topic_labels=["a", "b"])
        with pytest.raises(WorkloadError, match="subscriber_labels"):
            Workload([1.0], [[0]], subscriber_labels=["a", "b"])

    def test_default_labels(self, tiny_workload):
        assert tiny_workload.topic_label(1) == "t1"
        assert tiny_workload.subscriber_label(2) == "v2"

    def test_custom_labels(self):
        w = Workload([1.0], [[0]], topic_labels=["drake"], subscriber_labels=["fan"])
        assert w.topic_label(0) == "drake"
        assert w.subscriber_label(0) == "fan"


def _csr(interests):
    sizes = [len(i) for i in interests]
    indptr = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    flat = np.asarray([t for i in interests for t in i], dtype=np.int64)
    return indptr, flat


class TestCsrValidation:
    """``from_csr(validate=True)``: the ascending fast path and its fallback."""

    RATES = [1.0] * 10

    def test_unsorted_duplicates_name_the_smallest_subscriber(self):
        interests = [[3, 1], [2], [], [0, 4], [9, 8, 7], [5, 6, 5],
                     [1], [4, 0], [2, 3], [8, 1, 8], [7]]
        with pytest.raises(WorkloadError, match=r"^subscriber 5 has duplicate"):
            Workload.from_csr(self.RATES, *_csr(interests))

    def test_ascending_but_repeated_topics_rejected(self):
        interests = [[0, 1], [2, 2, 3], [4]]
        with pytest.raises(WorkloadError, match=r"^subscriber 1 has duplicate"):
            Workload.from_csr(self.RATES, *_csr(interests))

    def test_out_of_range_reported_on_unsorted_input(self):
        interests = [[3, 1], [2, 0], [4, 10, 1], [7, 12]]
        with pytest.raises(WorkloadError, match=r"^subscriber 2 references"):
            Workload.from_csr(self.RATES, *_csr(interests))
        interests = [[3, 1], [-1, 2]]
        with pytest.raises(WorkloadError, match=r"^subscriber 1 references"):
            Workload.from_csr(self.RATES, *_csr(interests))

    def test_unsorted_valid_input_accepted(self):
        interests = [[3, 1, 2], [], [9, 0], [5]]
        w = Workload.from_csr(self.RATES, *_csr(interests))
        assert w.num_pairs == 6
        np.testing.assert_array_equal(w.interest(2), [9, 0])

    @pytest.mark.parametrize("interests", [
        [[0, 2, 5], [], [1, 9], [3]],      # ascending: sort skipped
        [[5, 0, 2], [], [9, 1], [3]],      # unsorted: sorted keys
    ])
    def test_pair_keys_are_sorted_packed_keys(self, interests):
        w = Workload.from_csr(self.RATES, *_csr(interests))
        keys = w.pair_subscribers() * 10 + w.interest_topics
        np.testing.assert_array_equal(w.pair_keys(), np.sort(keys))

    def test_validation_peak_memory_per_pair(self):
        # Work counter, no wall time: range check plus ascending check
        # peak near 5 B per pair; the lexsort they replaced took ~35 B.
        import tracemalloc

        from repro.workloads import zipf_workload

        w = zipf_workload(20_000, 200_000, 5.0, seed=3)
        rates = np.array(w.event_rates)
        indptr = np.array(w.interest_indptr)
        topics = np.array(w.interest_topics)
        tracemalloc.start()
        try:
            Workload.from_csr(rates, indptr, topics, validate=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 * w.num_pairs


class TestDerivedViews:
    def test_subscribers_of(self, tiny_workload):
        assert tiny_workload.subscribers_of(0).tolist() == [0, 1]
        assert tiny_workload.subscribers_of(1).tolist() == [0, 1, 2]

    def test_audience_sizes(self, tiny_workload):
        assert tiny_workload.audience_sizes().tolist() == [2, 3]

    def test_interest_rate_sum(self, tiny_workload):
        assert tiny_workload.interest_rate_sum(0) == 30.0
        assert tiny_workload.interest_rate_sum(2) == 10.0

    def test_interest_rate_sums_vector(self, tiny_workload):
        assert tiny_workload.interest_rate_sums().tolist() == [30.0, 30.0, 10.0]

    def test_iter_pairs(self, tiny_workload):
        pairs = set(tiny_workload.iter_pairs())
        assert pairs == {(0, 0), (1, 0), (0, 1), (1, 1), (1, 2)}

    def test_stats(self, tiny_workload):
        stats = tiny_workload.stats()
        assert stats.num_pairs == 5
        assert stats.total_event_rate == 30.0
        assert stats.max_audience_size == 3
        assert stats.mean_interest_size == pytest.approx(5 / 3)

    def test_audience_of_unsubscribed_topic_empty(self):
        w = Workload([1.0, 2.0], [[0]])
        assert w.subscribers_of(1).size == 0


class TestTransforms:
    def test_restrict_subscribers(self, tiny_workload):
        sub = tiny_workload.restrict_subscribers([0, 2])
        assert sub.num_subscribers == 2
        assert sub.num_topics == 2  # topics preserved
        assert sub.interest(0).tolist() == [0, 1]
        assert sub.interest(1).tolist() == [1]

    def test_restrict_deduplicates_and_sorts(self, tiny_workload):
        sub = tiny_workload.restrict_subscribers([2, 0, 2])
        assert sub.num_subscribers == 2
        assert sub.interest(0).tolist() == [0, 1]

    def test_with_message_size(self, tiny_workload):
        w2 = tiny_workload.with_message_size(500.0)
        assert w2.message_size_bytes == 500.0
        assert w2.num_pairs == tiny_workload.num_pairs


class TestBuildWorkload:
    def test_sparse_ids_compacted(self):
        w = build_workload(
            subscriptions={10: [100, 200], 20: [200]},
            event_rates={100: 5.0, 200: 7.0},
        )
        assert w.num_topics == 2
        assert w.num_subscribers == 2
        assert w.topic_label(0) == "100"
        assert w.subscriber_label(1) == "20"
        assert w.interest_rate_sum(0) == 12.0

    def test_unknown_topic_raises(self):
        with pytest.raises(WorkloadError, match="unknown topic"):
            build_workload({1: [99]}, {1: 2.0})

    def test_rates_order_follows_sorted_topic_ids(self):
        w = build_workload({0: [5, 3]}, {3: 1.0, 5: 9.0})
        assert w.event_rate(0) == 1.0  # topic 3 first
        assert w.event_rate(1) == 9.0
