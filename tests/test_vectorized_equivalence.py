"""Randomized equivalence: vectorized hot paths vs their loop referees.

The PR that vectorized Stage-1 GSP, the satisfaction reductions, and
``validate_placement`` is gated on *exact* equivalence with the
original per-subscriber loop implementations, which remain in the tree
as executable specifications:

* ``GreedySelectPairs`` (vectorized)  ==  ``ReferenceGreedySelectPairs``
  (literal Algorithm 2)  ==  ``LoopGreedySelectPairs`` -- pair for
  pair, including the grouped-by-topic insertion order that downstream
  packers iterate;
* ``satisfied_mask`` / ``delivered_rates`` / ``satisfaction_slack``
  (np.bincount reductions)  ==  the scalar ``delivered_rate`` referee;
* ``validate_placement`` (vectorized)  ==  ``validate_placement_loop``
  -- identical verdict fields on feasible *and* broken placements;
* ``CustomBinPacking`` (CSR/whole-array Stage 2)  ==
  ``LoopCustomBinPacking`` (the retained ``cbp-loop`` referee) --
  *identical placements* (per-VM topic->subscriber assignment lists,
  assignment-group order, VM count, bytes and cost) on every ladder
  rung b/c/d/e, across randomized pricing plans so the cost-based
  decision (Algorithm 7) exercises both verdicts, and -- bit for bit
  in used, outgoing and incoming bytes -- on many small topics with
  non-integer rates whose running bytes end a batched run within a
  few ULPs of capacity;
* ``FFBinPacking`` (CSR pair enumeration + batch assigns)  ==
  ``LoopFFBinPacking`` (the ``ffbp-loop`` referee);
* ``Placement.from_pair_arrays`` (one lexsort, ``np.bincount`` VM
  bytes)  ==  a test-local copy of the per-group ``assign_range`` loop
  it replaced -- bit for bit in used, outgoing and incoming bytes, on
  shuffled pairs with non-integer rates up to 2**50 and empty VMs;
* ``build_social_graph`` (whole-array CSR construction,
  multinomial-and-shuffle draws)  ~=  ``build_social_graph_loop`` (the
  retained per-user referee) -- *distributional* equivalence (KS-style
  checks on followings/followers/rates; the draw methods are
  distribution-identical by exchangeability but their per-seed streams
  differ) plus shared structural invariants, and
  ``generate_social_workload`` == ``generate_social_workload_loop``
  *bit-exactly* on any shared graph (the compaction is deterministic);
* ``ChurnModel`` (CSR epoch surgery)  ==  ``LoopChurnModel`` (the
  retained ``churn-loop`` referee) -- bit-identical deltas and next
  workloads on shared seeds, epoch after epoch (both resolve the same
  rng draws against the same canonical pair enumeration);
* ``IncrementalReprovisioner`` (array state, batched GSP reselect,
  two-heap placement; run with ``fresh_solve_every=1`` to match the
  referee's every-epoch fresh solve)  ==
  ``LoopIncrementalReprovisioner`` (the retained ``reprovision-loop``
  referee) -- *identical epoch placements*, costs, EpochReport move
  counts and rebuild decisions on shared-seed churn streams; its pair
  placer alone is pinned against a test-local copy of the masked-argmax
  scan it replaced, on adversarial float inputs (ties, near-capacity
  hosts, capacities past 2**53, non-integer rates);
* ``MicroEpochService`` (the serving layer: churn fragments queued,
  sealed per micro-epoch, stepped through the merge-maintained group
  index; run with ``fresh_solve_every=1``)  ==
  ``LoopIncrementalReprovisioner`` stepping the same churn whole --
  identical placements and costs across *randomized* fragment splits
  of every epoch's operation stream.

All generated rates are integer-valued, so every partial sum is
exactly representable and the equivalence is bit-exact (the documented
contract; see the module docstrings).  Edge cases covered: empty
interests, tau = 0, single-topic subscribers, equal-rate ties,
tau above every interest sum, and all-rates-exceed-tau overshoot.
"""

from __future__ import annotations

from typing import Dict, Set

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.core import (
    MCSSProblem,
    PairSelection,
    Placement,
    Workload,
    delivered_rate,
    delivered_rates,
    satisfaction_slack,
    satisfied_mask,
    selection_satisfied_mask,
    subscriber_thresholds,
    validate_placement,
    validate_placement_loop,
)
from repro.core.placement import pairs_that_fit
from repro.packing import (
    CBPOptions,
    CustomBinPacking,
    FFBinPacking,
    LoopCustomBinPacking,
    LoopFFBinPacking,
    cheaper_to_distribute,
    cheaper_to_distribute_loop,
    diff_placements,
)
from repro.dynamic import (
    ChurnConfig,
    ChurnModel,
    IncrementalReprovisioner,
    LoopChurnModel,
    LoopIncrementalReprovisioner,
)
from repro.selection import (
    GreedySelectPairs,
    LoopGreedySelectPairs,
    ReferenceGreedySelectPairs,
)
from repro.solver import MCSSSolver
from repro.workloads import (
    build_social_graph,
    build_social_graph_loop,
    generate_social_workload,
    generate_social_workload_loop,
)
from tests.conftest import make_unit_plan

NUM_RANDOM_WORKLOADS = 24


def edgy_workload(rng: np.random.Generator) -> Workload:
    """A small random workload deliberately rich in edge cases.

    Mixes empty interests, single-topic subscribers, equal-rate runs
    (small integer rates collide often), and the full interest range.
    """
    num_topics = int(rng.integers(1, 12))
    num_subscribers = int(rng.integers(1, 14))
    # Small integer rates make equal-rate ties common.
    rates = rng.integers(1, 8, size=num_topics).astype(float)
    interests = []
    for _ in range(num_subscribers):
        style = rng.random()
        if style < 0.15:
            interests.append([])  # empty: tau_v == 0
        elif style < 0.35:
            interests.append([int(rng.integers(num_topics))])  # single topic
        else:
            k = int(rng.integers(1, num_topics + 1))
            interests.append(
                sorted(rng.choice(num_topics, size=k, replace=False).tolist())
            )
    return Workload(rates, interests, message_size_bytes=1.0)


def taus_for(workload: Workload, rng: np.random.Generator):
    """Edge-case taus: zero, tiny, typical, just-below-max, above-max."""
    total = float(workload.event_rates.sum())
    return [0.0, 1.0, float(rng.integers(1, 10)), max(total - 1.0, 1.0), total + 10.0]


class TestGSPEquivalence:
    """Vectorized GSP == loop GSP == literal Algorithm 2."""

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_random_workloads(self, seed):
        rng = np.random.default_rng(1000 + seed)
        workload = edgy_workload(rng)
        for tau in taus_for(workload, rng):
            problem = MCSSProblem(workload, tau, make_unit_plan(1e12))
            fast = GreedySelectPairs().select(problem)
            loop = LoopGreedySelectPairs().select(problem)
            reference = ReferenceGreedySelectPairs().select(problem)
            assert fast == loop, f"tau={tau}"
            assert fast == reference, f"tau={tau}"
            # Stronger than set equality: the by-topic insertion order
            # and per-topic subscriber order drive downstream packers,
            # so they must match the loop exactly too.
            assert list(fast.topics) == list(loop.topics), f"tau={tau}"
            for t in fast.topics:
                assert (
                    fast.subscribers_of(t).tolist()
                    == loop.subscribers_of(t).tolist()
                ), f"tau={tau} topic={t}"

    def test_all_rates_exceed_tau_overshoot(self):
        # Every topic overshoots: each subscriber must get exactly its
        # smallest-rate topic (smallest id on ties).
        w = Workload([20.0, 7.0, 7.0, 12.0], [[0, 1, 2, 3], [0, 3], [1, 2]])
        problem = MCSSProblem(w, 5.0, make_unit_plan(1e9))
        fast = GreedySelectPairs().select(problem)
        loop = LoopGreedySelectPairs().select(problem)
        assert fast == loop
        assert sorted(fast) == [(1, 0), (1, 2), (3, 1)]

    def test_equal_rate_tie_chain(self):
        # All equal rates: descending prefix is id-ascending.
        w = Workload([4.0] * 5, [[0, 1, 2, 3, 4]])
        problem = MCSSProblem(w, 10.0, make_unit_plan(1e9))
        fast = GreedySelectPairs().select(problem)
        assert fast == ReferenceGreedySelectPairs().select(problem)
        # 4+4 = 8 < 10, next 4 overshoots but nothing fits: smallest
        # skipped is topic 2.
        assert sorted(t for t, _ in fast) == [0, 1, 2]

    def test_empty_and_tau_zero(self):
        w = Workload([5.0, 3.0], [[], [0, 1], []])
        assert GreedySelectPairs().select(
            MCSSProblem(w, 0.0, make_unit_plan(1e9))
        ).num_pairs == 0
        sel = GreedySelectPairs().select(MCSSProblem(w, 100.0, make_unit_plan(1e9)))
        assert sel == LoopGreedySelectPairs().select(
            MCSSProblem(w, 100.0, make_unit_plan(1e9))
        )
        assert sel.num_pairs == 2  # only subscriber 1, both topics


class TestSatisfactionEquivalence:
    """np.bincount reductions == the scalar delivered_rate referee."""

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_random_deliveries(self, seed):
        rng = np.random.default_rng(2000 + seed)
        workload = edgy_workload(rng)
        num_topics = workload.num_topics
        # Random delivery mapping: some subscribers missing, some
        # receiving out-of-interest topics, some duplicates.
        mapping = {}
        for v in range(workload.num_subscribers):
            if rng.random() < 0.2:
                continue
            k = int(rng.integers(0, num_topics + 2))
            topics = rng.integers(0, num_topics, size=k).tolist()
            mapping[v] = topics + topics[: int(rng.integers(0, 2))]  # dup tail

        got = delivered_rates(workload, mapping)
        expected = np.zeros(workload.num_subscribers)
        for v, topics in mapping.items():
            expected[v] = delivered_rate(workload, v, topics)
        np.testing.assert_array_equal(got, expected)

        for tau in taus_for(workload, rng):
            mask = satisfied_mask(workload, mapping, tau)
            thresholds = subscriber_thresholds(workload, tau)
            loop_mask = expected >= thresholds * (1.0 - 1e-9)
            np.testing.assert_array_equal(mask, loop_mask)
            slack = satisfaction_slack(workload, mapping, tau)
            np.testing.assert_allclose(slack, expected - thresholds)

    @pytest.mark.parametrize("seed", range(8))
    def test_selection_mask_matches_mapping_mask(self, seed):
        rng = np.random.default_rng(3000 + seed)
        workload = edgy_workload(rng)
        problem = MCSSProblem(workload, 6.0, make_unit_plan(1e12))
        selection = GreedySelectPairs().select(problem)
        fast = selection_satisfied_mask(workload, selection, 6.0)
        slow = satisfied_mask(workload, selection.topics_by_subscriber(), 6.0)
        np.testing.assert_array_equal(fast, slow)
        assert fast.all()  # GSP selections are sufficient by construction

    def test_pair_arrays_roundtrip(self):
        sel = PairSelection({3: [1, 2], 0: [2]})
        topics, subs = sel.pair_arrays()
        assert sorted(zip(topics.tolist(), subs.tolist())) == [(0, 2), (3, 1), (3, 2)]

    def test_trusted_arrays_constructor(self):
        by_topic = {2: np.asarray([0, 3], dtype=np.int64)}
        sel = PairSelection(by_topic, trusted=True)
        assert sel.num_pairs == 2
        assert (2, 3) in sel
        assert sel == PairSelection({2: [0, 3]})


def _bisect_left_ge(values, lo, hi, target):
    """Per-lane leftmost ``i`` in ``[lo, hi)`` with ``values[i] >= target``."""
    lo, hi = lo.copy(), hi.copy()
    if lo.size == 0:
        return lo
    size = values.size
    for _ in range(max(int((hi - lo).max()), 0).bit_length()):
        mid = (lo + hi) >> 1
        go_left = (values[np.minimum(mid, size - 1)] >= target) | (lo >= hi)
        hi = np.where(go_left, mid, hi)
        lo = np.where(go_left, lo, mid + 1)
    return lo


def segmented_delivered_rates(
    workload, pair_topics, pair_subscribers, *, assume_unique=False
):
    """Copy of the bisection-based ``delivered_rates_from_arrays``.

    Each delivered pair is bisected inside its subscriber's sorted
    interest window, duplicates collapse by scattering onto the found
    pair slots, and the bincount runs in slot order (or input order
    with ``assume_unique``).
    """
    n = workload.num_subscribers
    num_topics = workload.num_topics
    topics = np.asarray(pair_topics, dtype=np.int64)
    subs = np.asarray(pair_subscribers, dtype=np.int64)
    if num_topics == 0 or topics.size == 0 or workload.num_pairs == 0:
        return np.zeros(n, dtype=np.float64)
    valid = (topics >= 0) & (topics < num_topics) & (subs >= 0) & (subs < n)
    if not valid.all():
        topics, subs = topics[valid], subs[valid]
    sorted_topics = workload.sorted_interest_topics()
    indptr = workload.interest_indptr
    lo = indptr[subs]
    hi = indptr[subs + 1]
    slot = _bisect_left_ge(sorted_topics, lo, hi, topics)
    slot_clipped = np.minimum(slot, sorted_topics.size - 1)
    member = (slot < hi) & (sorted_topics[slot_clipped] == topics)
    if assume_unique:
        hit_subs = subs[member]
        hit_topics = topics[member]
    else:
        seen = np.zeros(sorted_topics.size, dtype=bool)
        seen[slot_clipped[member]] = True
        hits = np.flatnonzero(seen)
        hit_subs = workload.pair_subscribers()[hits]
        hit_topics = sorted_topics[hits]
    return np.bincount(
        hit_subs, weights=workload.event_rates[hit_topics], minlength=n
    )


@st.composite
def delivery_inputs(draw):
    """An unsorted-CSR workload with non-integer rates, plus deliveries.

    Interests are drawn in random order (so the sorted view goes
    through ``pair_keys``) and may be empty; deliveries repeat pairs
    and reach one id past each end of the valid ranges.  Rates span
    nine decades, so a changed summation order shows in the bits.
    """
    num_topics = draw(st.integers(1, 9))
    n = draw(st.integers(1, 10))
    rates = draw(st.lists(
        st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False),
        min_size=num_topics, max_size=num_topics,
    ))
    interests = [
        draw(st.lists(st.integers(0, num_topics - 1), unique=True, max_size=num_topics))
        for _ in range(n)
    ]
    sizes = np.asarray([len(i) for i in interests], dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    flat = np.asarray([t for i in interests for t in i], dtype=np.int64)
    workload = Workload.from_csr(rates, indptr, flat)
    m = draw(st.integers(0, 40))
    topics = draw(st.lists(st.integers(-1, num_topics), min_size=m, max_size=m))
    subs = draw(st.lists(st.integers(-1, n), min_size=m, max_size=m))
    block = draw(st.sampled_from([1, 2, 3, 1 << 18]))
    return workload, np.asarray(topics, np.int64), np.asarray(subs, np.int64), block


class TestDeliveredRatesExactness:
    """The sorted-key membership test == the segmented bisection it replaced.

    Bit for bit, on both dedup modes, across haystack block boundaries
    (the block constant is shrunk so several blocks run).
    """

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(delivery_inputs())
    def test_matches_segmented_search(self, monkeypatch, inputs):
        from repro.core import satisfaction

        workload, topics, subs, block = inputs
        monkeypatch.setattr(satisfaction, "_BLOCK_SUBSCRIBERS", block)
        for unique in (False, True):
            got = satisfaction.delivered_rates_from_arrays(
                workload, topics, subs, assume_unique=unique
            )
            want = segmented_delivered_rates(
                workload, topics, subs, assume_unique=unique
            )
            assert got.tobytes() == want.tobytes(), f"assume_unique={unique}"


def assert_identical_placements(fast, loop, problem):
    """Placement identity: the pinning contract of the packing referees.

    Stronger than equal cost: the per-(vm, topic) subscriber lists, the
    assignment-group insertion order, the VM count and the byte/cost
    totals must all match exactly.  The structural half is the shared
    :func:`repro.packing.diff_placements` (also enforced by
    ``scripts/profile_solver.py``).
    """
    assert diff_placements(fast, loop) is None, diff_placements(fast, loop)
    fast_cost = problem.cost_of(fast)
    loop_cost = problem.cost_of(loop)
    assert fast_cost.num_vms == loop_cost.num_vms
    assert fast_cost.total_usd == pytest.approx(loop_cost.total_usd, rel=1e-12)


def packing_problem(workload, rng):
    """A problem whose capacity forces spilling and whose randomized
    pricing makes Algorithm 7 rule both ways across seeds."""
    max_pair = 2.0 * float(workload.event_rates.max())
    capacity = max(max_pair, float(rng.integers(2, 40)))
    vm_price = float(rng.choice([0.0, 0.5, 10.0, 200.0]))
    usd_per_gb = float(rng.choice([0.0, 0.12, 1e3, 1e9]))
    tau = float(rng.integers(1, 14))
    return MCSSProblem(
        workload, tau, make_unit_plan(capacity, vm_price=vm_price, usd_per_gb=usd_per_gb)
    )


@pytest.fixture(params=["scalar-kernel", "array-kernel"])
def fleet_kernel(request, monkeypatch):
    """Run the packing equivalence both ways across the size crossover.

    The vectorized CBP dispatches per-VM scans to a scalar kernel below
    ``_SMALL_FLEET`` VMs and to whole-array passes above it; the edgy
    workloads here build small fleets, so the threshold is forced to 0
    to exercise the array kernels on the same instances.
    """
    from repro.packing import custom

    if request.param == "array-kernel":
        monkeypatch.setattr(custom, "_SMALL_FLEET", 0)
    return request.param


class TestCBPEquivalence:
    """Vectorized CBP == the retained cbp-loop referee, placement for
    placement, on every rung of the optimization ladder."""

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_random_workloads_all_rungs(self, seed, fleet_kernel):
        rng = np.random.default_rng(6000 + seed)
        workload = edgy_workload(rng)
        problem = packing_problem(workload, rng)
        selection = GreedySelectPairs().select(problem)
        for rung in ("b", "c", "d", "e"):
            opts = CBPOptions.ladder(rung)
            fast = CustomBinPacking(opts).pack(problem, selection)
            loop = LoopCustomBinPacking(opts).pack(problem, selection)
            assert_identical_placements(fast, loop, problem)
            assert validate_placement(problem, fast).ok, f"rung {rung}"

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_cheaper_to_distribute_same_verdict(self, seed, fleet_kernel):
        # Algorithm 7 head-to-head on partially packed fleets, across
        # counts around and beyond what the fleet can absorb.
        rng = np.random.default_rng(7000 + seed)
        workload = edgy_workload(rng)
        problem = packing_problem(workload, rng)
        selection = GreedySelectPairs().select(problem)
        placement = CustomBinPacking(CBPOptions.ladder("d")).pack(problem, selection)
        if placement.num_vms == 0:
            return
        rates = workload.event_rates
        msg = workload.message_size_bytes
        for t in range(workload.num_topics):
            topic_bytes = float(rates[t]) * msg
            if 2.0 * topic_bytes > problem.capacity_bytes:
                continue
            for count in (1, 3, int(rng.integers(1, 50))):
                fast = cheaper_to_distribute(
                    placement, problem.plan, t, topic_bytes, count
                )
                loop = cheaper_to_distribute_loop(
                    placement, problem.plan, t, topic_bytes, count
                )
                assert fast == loop, f"topic {t} count {count}"

    def test_full_selection_and_empty(self, tiny_problem):
        full = PairSelection.full(tiny_problem.workload)
        fast = CustomBinPacking().pack(tiny_problem, full)
        loop = LoopCustomBinPacking().pack(tiny_problem, full)
        assert_identical_placements(fast, loop, tiny_problem)
        empty = CustomBinPacking().pack(tiny_problem, PairSelection({}))
        assert empty.num_vms == 0

    def test_big_topic_fresh_vm_batch(self):
        # One topic spanning several fresh VMs: deploying all
        # ceil(count / per_fresh) VMs up front and filling them with
        # consecutive slices must chunk exactly like the referee's
        # while-loop.
        w = Workload([10.0], [[0]] * 23, message_size_bytes=1.0)
        problem = MCSSProblem(w, 10, make_unit_plan(50.0))
        full = PairSelection.full(w)
        fast = CustomBinPacking().pack(problem, full)
        loop = LoopCustomBinPacking().pack(problem, full)
        assert_identical_placements(fast, loop, problem)
        assert fast.num_vms == 6  # 4 pairs per VM (40 out + 10 in), 23 pairs


@st.composite
def run_boundary_instances(draw):
    """Many small topics whose running VM bytes end a run on a knife edge.

    Non-integer rates (so every running sum rounds), groups of 1-4
    subscribers, and topic ids relabelled so that insertion order is
    also the expensive-topic-first order: every rung then allocates in
    the same order, and the capacity is set so that the ``k``-th topic's
    need lands exactly on, or 1-3 ULPs around, ``cap + 1e-9`` minus the
    VM's running bytes -- the fit test at a run boundary.  Rates scaled
    by 2**50 put capacities past 2**53, where ``1e-9`` vanishes and each
    running sum drops low bits.  Returns ``(problem, selection, gallop)``
    with ``gallop`` the run length to start batching after.
    """
    num_topics = draw(st.integers(2, 80))
    raw = np.asarray(draw(st.lists(
        st.floats(0.5, 4.0), min_size=num_topics, max_size=num_topics
    )))
    counts = np.asarray(draw(st.lists(
        st.integers(1, 4), min_size=num_topics, max_size=num_topics
    )), dtype=np.int64)
    msg = draw(st.sampled_from([1.0, 0.1, 3.0]))
    rates = raw * draw(st.sampled_from([1.0, 2.0 ** 50]))
    order = np.lexsort((np.arange(num_topics), -rates, -rates * counts))
    rates, counts = rates[order], counts[order]
    tb = rates * msg

    k = draw(st.integers(1, num_topics - 1))
    out = inc = 0.0
    for j in range(k):  # the sequential VirtualMachine accounting
        out += float(tb[j]) * int(counts[j])
        inc += float(tb[j])
    capacity = (float(tb[k]) * (int(counts[k]) + 1) - 1e-9) + (out + inc)
    ulps = draw(st.integers(-3, 3))
    for _ in range(abs(ulps)):
        capacity = float(np.nextafter(capacity, np.inf if ulps > 0 else -np.inf))
    assume(2.0 * float(tb.max()) <= capacity)

    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    subs = np.concatenate([np.arange(n, dtype=np.int64) for n in counts.tolist()])
    interests = [
        np.flatnonzero(counts > v).tolist() for v in range(int(counts.max()))
    ]
    workload = Workload(rates, interests, message_size_bytes=msg)
    plan = make_unit_plan(
        capacity,
        vm_price=draw(st.sampled_from([0.0, 0.5, 10.0, 200.0])),
        usd_per_gb=draw(st.sampled_from([0.0, 0.12, 1e3, 1e9])),
    )
    selection = PairSelection.from_csr(
        np.arange(num_topics, dtype=np.int64), indptr, subs, trusted=True
    )
    gallop = draw(st.sampled_from([1, 2, 16]))
    return MCSSProblem(workload, 1.0, plan), selection, gallop


class TestCBPRunBatching:
    """Run-batched CBP == cbp-loop on adversarial run boundaries.

    The main loop places long runs of fitting topics with
    ``Placement.assign_groups``, whose fit test must reproduce the
    sequential ``fits`` + ``+=`` accounting bit for bit; these instances
    put a run boundary where one rounding step decides the fit.
    """

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(run_boundary_instances())
    def test_matches_referee_at_run_boundaries(self, fleet_kernel, instance):
        from repro.packing import custom

        problem, selection, gallop = instance
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(custom, "_GALLOP_AFTER", gallop)
            for rung in ("b", "c", "d", "e"):
                opts = CBPOptions.ladder(rung)
                fast = CustomBinPacking(opts).pack(problem, selection)
                loop = LoopCustomBinPacking(opts).pack(problem, selection)
                assert_identical_placements(fast, loop, problem)
                assert fast.used_bytes_array().tobytes() == (
                    loop.used_bytes_array().tobytes()
                ), f"rung {rung}"
                for a, b in zip(fast.vms, loop.vms):
                    assert a.outgoing_bytes == b.outgoing_bytes, f"rung {rung}"
                    assert a.incoming_bytes == b.incoming_bytes, f"rung {rung}"


@st.composite
def pair_budget_fleets(draw):
    """A fleet whose VMs each host one filler topic, some also the
    probed topic, with non-integer rates so that every free-byte value
    and pair budget rounds."""
    num_vms = draw(st.integers(1, 8))
    fill = draw(st.lists(st.floats(0.01, 5.0), min_size=num_vms, max_size=num_vms))
    topic_bytes = draw(st.floats(0.01, 5.0))
    capacity = draw(st.floats(0.05, 30.0))
    hosts = draw(st.lists(st.booleans(), min_size=num_vms, max_size=num_vms))
    workload = Workload(fill + [topic_bytes], [[0, 1]] * 2, message_size_bytes=1.0)
    placement = Placement(workload, capacity)
    for b in range(num_vms):
        placement.new_vm()
        vm = placement.vm(b)
        if vm.fits(fill[b], 2, new_topic=True):
            placement.assign(b, b, [0, 1])
        if hosts[b] and vm.fits(topic_bytes, 1, new_topic=True):
            placement.assign(b, num_vms, [0])
    return placement, num_vms, topic_bytes


class TestPairBudgets:
    """Every pair budget that is assigned passes the exact fit test.

    ``pairs_that_fit`` (``VirtualMachine.max_new_pairs``, so both CBP
    and the ``cbp-loop`` referee) and the whole-array
    ``_fleet_fits(..., exact=True)`` of CBP's spill floor a rounded
    budget, which at a rounding edge can be one pair too many; both
    must lower it identically.
    """

    @settings(max_examples=300, deadline=None)
    @given(pair_budget_fleets())
    def test_fleet_fits_matches_scalar_and_fits(self, fleet):
        from repro.packing.custom import _fleet_fits

        placement, topic, topic_bytes = fleet
        free, fit, hosts = _fleet_fits(placement, topic, topic_bytes, exact=True)
        for b in range(placement.num_vms):
            vm = placement.vm(b)
            n = vm.max_new_pairs(topic_bytes, vm.hosts_topic(topic))
            assert int(fit[b]) == n
            assert bool(hosts[b]) == vm.hosts_topic(topic)
            assert free[b] == vm.free_bytes
            if n:
                assert vm.fits(topic_bytes, n, new_topic=not hosts[b])

    def test_rounding_edge_is_lowered_by_both_kernels(self):
        from repro.packing.custom import _fleet_fits

        # floor((free + slack - tb) / tb) is 4, but tb * 5 > free + slack.
        w = Workload([2.1347104300198896, 2.0592506423356225], [[0, 1]] * 4, 1.0)
        p = Placement(w, 20.96980536077756)
        p.new_vm()
        p.assign(0, 0, [0, 1, 2, 3])
        tb = p.topic_bytes(1)
        assert _fleet_fits(p, 1, tb, exact=True)[1].tolist() == [3]
        assert _fleet_fits(p, 1, tb)[1].tolist() == [4]  # Algorithm 7's estimate
        assert pairs_that_fit(p.vm(0).free_bytes, tb, new_topic=True) == 3


class _PerGroupMaterialization:
    """The per-group ``from_pair_arrays`` that the columnar store replaced.

    Verbatim in its arithmetic: one lexsort groups the pairs by
    ``(vm, topic)``, then one ``assign_range`` per group adds
    ``out += tb * n`` and, for a topic new to the VM, ``in += tb``.
    """

    def __init__(self, workload, vm_ids, topics, subscribers, num_vms):
        self.workload = workload
        self.out = [0.0] * num_vms
        self.inc = [0.0] * num_vms
        self.used = np.zeros(num_vms)
        self.pair_counts = [{} for _ in range(num_vms)]
        self.topic_vms = {}
        self.members = {}
        self.num_pairs = 0
        vm = np.ascontiguousarray(vm_ids, dtype=np.int64)
        t = np.ascontiguousarray(topics, dtype=np.int64)
        v = np.ascontiguousarray(subscribers, dtype=np.int64)
        order = np.lexsort((t, vm))
        s_vm, s_t, s_v = vm[order], t[order], v[order]
        key = s_vm * np.int64(int(s_t.max()) + 1) + s_t
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        ends = np.append(starts[1:], s_vm.size)
        for g in range(starts.size):
            lo = int(starts[g])
            self.assign_range(int(s_vm[lo]), int(s_t[lo]), s_v[lo:int(ends[g])])

    def assign_range(self, vm_index, topic, subs):
        topic_bytes = self.workload.event_rate(topic) * self.workload.message_size_bytes
        count = int(subs.size)
        counts = self.pair_counts[vm_index]
        new_topic = topic not in counts
        counts[topic] = counts.get(topic, 0) + count
        self.out[vm_index] += topic_bytes * count
        if new_topic:
            self.inc[vm_index] += topic_bytes
        self.used[vm_index] = self.out[vm_index] + self.inc[vm_index]
        if new_topic:
            self.topic_vms.setdefault(topic, []).append(vm_index)
        self.members.setdefault((vm_index, topic), []).append(subs)
        self.num_pairs += count


@st.composite
def pair_array_instances(draw):
    """Shuffled per-pair arrays: several groups per VM, repeated topics
    across VMs, trailing empty VMs, and non-integer rates up to 2**50
    so that every running byte sum rounds."""
    num_topics = draw(st.integers(1, 30))
    rates = np.asarray(draw(st.lists(
        st.floats(0.01, 9.0), min_size=num_topics, max_size=num_topics
    ))) * draw(st.sampled_from([1.0, 3.0, 2.0 ** 50]))
    msg = draw(st.sampled_from([1.0, 0.1, 7.3]))
    num_vms = draw(st.integers(1, 12))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, num_vms - 1), st.integers(0, num_topics - 1),
                  st.integers(0, 40)),
        min_size=1, max_size=300, unique=True,
    ))
    order = draw(st.permutations(range(len(pairs))))
    vm_ids, topics, subscribers = (
        np.asarray([pairs[i][k] for i in order], dtype=np.int64) for k in range(3)
    )
    workload = Workload(rates, [list(range(num_topics))], message_size_bytes=msg)
    return workload, vm_ids, topics, subscribers, num_vms + draw(st.integers(0, 3))


class TestFromPairArraysExactness:
    """``Placement.from_pair_arrays`` == the per-group loop it replaced.

    The VM bytes are two ``np.bincount`` passes, which add the weights
    into each bin in input order -- the same ``+=`` sequence as one
    ``assign_range`` per group.  A pairwise reduction (``np.sum``,
    ``np.add.reduceat``) would round differently on these inputs.
    """

    @settings(max_examples=200, deadline=None)
    @given(pair_array_instances())
    def test_matches_per_group_assign_range(self, instance):
        workload, vm_ids, topics, subscribers, num_vms = instance
        ref = _PerGroupMaterialization(workload, vm_ids, topics, subscribers, num_vms)
        p = Placement.from_pair_arrays(
            workload, 1e300, vm_ids, topics, subscribers, num_vms=num_vms
        )
        assert list(p.iter_assignments()) == [
            (b, t, np.concatenate(chunks).tolist())
            for (b, t), chunks in ref.members.items()
        ]
        assert p.used_bytes_array().tobytes() == ref.used.tobytes()
        assert [vm.outgoing_bytes for vm in p.vms] == ref.out
        assert [vm.incoming_bytes for vm in p.vms] == ref.inc
        assert [p.vm_topics(b) for b in range(num_vms)] == [
            list(counts) for counts in ref.pair_counts
        ]
        assert {t: p.hosting_vms(t) for t in range(workload.num_topics)} == {
            t: ref.topic_vms.get(t, []) for t in range(workload.num_topics)
        }
        assert p.num_pairs == ref.num_pairs


class TestSharedSelectionEquivalence:
    """The cost ladder's path: one GSP selection, every rung packed
    cold through :meth:`MCSSSolver.solve_with_selection`, each rung ==
    the cbp-loop referee on that same selection."""

    @pytest.mark.parametrize("seed", range(4))
    def test_pipeline_rungs_match_referee(self, seed, fleet_kernel):
        rng = np.random.default_rng(20_000 + seed)
        workload = edgy_workload(rng)
        problem = packing_problem(workload, rng)
        shared = GreedySelectPairs().select(problem)
        for rung in ("b", "c", "d", "e"):
            solution = MCSSSolver.ladder(rung).solve_with_selection(problem, shared)
            loop = LoopCustomBinPacking(CBPOptions.ladder(rung)).pack(problem, shared)
            assert_identical_placements(solution.placement, loop, problem)
            assert solution.validation.ok, f"rung {rung}"

    @pytest.mark.parametrize("seed", range(2))
    def test_reused_packer_is_stateless(self, seed, fleet_kernel):
        # One packer instance, problems interleaved twice over: each
        # pack must equal a fresh packer's.
        rng = np.random.default_rng(21_000 + seed)
        problems = [packing_problem(edgy_workload(rng), rng) for _ in range(3)]
        selections = [GreedySelectPairs().select(p) for p in problems]
        packer = CustomBinPacking()
        for problem, selection in list(zip(problems, selections)) * 2:
            reused = packer.pack(problem, selection)
            fresh = CustomBinPacking().pack(problem, selection)
            assert_identical_placements(reused, fresh, problem)


class TestFFBPEquivalence:
    """Array-enumerated FFBP == the retained ffbp-loop referee."""

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_random_workloads(self, seed):
        rng = np.random.default_rng(8000 + seed)
        workload = edgy_workload(rng)
        problem = packing_problem(workload, rng)
        selection = GreedySelectPairs().select(problem)
        fast = FFBinPacking().pack(problem, selection)
        loop = LoopFFBinPacking().pack(problem, selection)
        assert_identical_placements(fast, loop, problem)

    def test_full_selection(self, tiny_problem):
        full = PairSelection.full(tiny_problem.workload)
        fast = FFBinPacking().pack(tiny_problem, full)
        loop = LoopFFBinPacking().pack(tiny_problem, full)
        assert_identical_placements(fast, loop, tiny_problem)


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (sup of |CDF_a - CDF_b|)."""
    a, b = np.sort(np.asarray(a)), np.sort(np.asarray(b))
    grid = np.concatenate([a, b])
    grid.sort(kind="stable")
    cdf_a = np.searchsorted(a, grid, side="right") / max(a.size, 1)
    cdf_b = np.searchsorted(b, grid, side="right") / max(b.size, 1)
    return float(np.abs(cdf_a - cdf_b).max()) if grid.size else 0.0


def social_inputs(rng: np.random.Generator, num_users: int):
    """Heavy-tailed construction inputs that stress dedup + top-up."""
    counts = np.minimum(
        rng.geometric(0.08, size=num_users), num_users - 1
    ).astype(np.int64)
    counts[rng.random(num_users) < 0.05] = 0  # some users follow nobody
    weights = 1.0 + rng.pareto(0.9, size=num_users)  # heavy: many dup draws

    def rate_model(followers, r):
        out = r.integers(0, 4, size=followers.size)
        return out

    return counts, weights, rate_model


class TestSocialConstructionEquivalence:
    """Whole-array social-graph construction vs the per-user referee.

    The vectorized builder's weighted draw (one multinomial + shuffle)
    is distribution-identical to the referee's per-slot ``rng.choice``
    by exchangeability, but the per-seed streams differ -- so the
    pinning here is KS-style distribution checks plus the structural
    invariants both constructions guarantee, and *bit-exact* identity
    for the (deterministic) compaction stage.
    """

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_structural_invariants(self, seed):
        rng = np.random.default_rng(9000 + seed)
        n = int(rng.integers(2, 400))
        counts, weights, rate_model = social_inputs(rng, n)
        graph = build_social_graph(
            n, np.random.default_rng(seed), counts, weights, rate_model
        )
        out_degrees = graph.following_counts()
        # CSR satellite fix: out-degrees come straight from the indptr.
        assert np.array_equal(out_degrees, np.diff(graph.following_indptr))
        assert int(graph.following_indptr[0]) == 0
        # Never exceeds the declared out-degree (clipped to n - 1).
        assert (out_degrees <= np.clip(counts, 0, n - 1)).all()
        owners = np.repeat(np.arange(n, dtype=np.int64), out_degrees)
        targets = graph.following_targets
        assert (targets != owners).all()  # no self-follows
        # Sorted and duplicate-free within each user: packed keys are
        # globally strictly increasing.
        keys = owners * n + targets
        assert (np.diff(keys) > 0).all()
        assert np.array_equal(
            graph.follower_counts, np.bincount(targets, minlength=n)
        )
        # The lazy tuple view is zero-copy over the flat array.
        for u in (0, n // 2, n - 1):
            view = graph.followings[u]
            assert view.base is graph.following_targets or view.size == 0
            assert np.array_equal(
                view,
                targets[graph.following_indptr[u] : graph.following_indptr[u + 1]],
            )

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_compaction_identity_on_shared_graph(self, seed):
        # generate_social_workload is deterministic: on the *same*
        # graph the vectorized remap and the loop referee must agree
        # bit for bit (rates, offsets, flat topics).
        rng = np.random.default_rng(9500 + seed)
        n = int(rng.integers(2, 400))
        counts, weights, rate_model = social_inputs(rng, n)
        graph = build_social_graph(
            n, np.random.default_rng(seed), counts, weights, rate_model
        )
        fast = generate_social_workload(graph)
        loop = generate_social_workload_loop(graph)
        assert np.array_equal(fast.event_rates, loop.event_rates)
        assert np.array_equal(fast.interest_indptr, loop.interest_indptr)
        assert np.array_equal(fast.interest_topics, loop.interest_topics)
        assert fast.num_pairs == loop.num_pairs

    def test_determinism_same_seed(self):
        rng = np.random.default_rng(42)
        n = 300
        counts, weights, rate_model = social_inputs(rng, n)
        a = build_social_graph(n, np.random.default_rng(5), counts, weights, rate_model)
        b = build_social_graph(n, np.random.default_rng(5), counts, weights, rate_model)
        assert np.array_equal(a.following_targets, b.following_targets)
        assert np.array_equal(a.following_indptr, b.following_indptr)
        assert np.array_equal(a.event_counts, b.event_counts)

    def test_distributions_match_loop_referee(self):
        # Shared inputs, separate edge streams: the achieved
        # followings, follower counts and event counts must agree in
        # distribution with the per-user referee.  At n = 3000 the
        # same-distribution KS statistic is well below the thresholds.
        rng = np.random.default_rng(77)
        n = 3000
        counts, weights, rate_model = social_inputs(rng, n)
        fast = build_social_graph(
            n, np.random.default_rng(1), counts, weights, rate_model
        )
        loop = build_social_graph_loop(
            n, np.random.default_rng(1), counts, weights, rate_model
        )
        assert ks_statistic(fast.following_counts(), loop.following_counts()) < 0.02
        assert ks_statistic(fast.follower_counts, loop.follower_counts) < 0.05
        assert ks_statistic(fast.event_counts, loop.event_counts) < 0.05
        # Popularity attachment preserved: both builders give the
        # heavy-weight users the same share of all follows.
        top = np.argsort(weights)[-30:]
        fast_share = fast.follower_counts[top].sum() / fast.num_edges
        loop_share = loop.follower_counts[top].sum() / loop.num_edges
        assert abs(fast_share - loop_share) < 0.05

    def test_degenerate_graphs(self):
        # Zero declared followings: an empty CSR graph and an empty
        # workload, identically on both compaction paths.
        g = build_social_graph(
            3,
            np.random.default_rng(0),
            np.zeros(3, dtype=np.int64),
            np.ones(3),
            lambda f, r: np.ones(3, dtype=np.int64),
        )
        assert g.num_edges == 0 and len(g.followings) == 3
        for gen in (generate_social_workload, generate_social_workload_loop):
            w = gen(g)
            assert w.num_topics == 0 and w.num_subscribers == 0
        # All users inactive: every pair is dropped by compaction.
        g2 = build_social_graph(
            5,
            np.random.default_rng(1),
            np.full(5, 2, dtype=np.int64),
            np.ones(5),
            lambda f, r: np.zeros(5, dtype=np.int64),
        )
        for gen in (generate_social_workload, generate_social_workload_loop):
            w = gen(g2)
            assert w.num_topics == 0 and w.num_pairs == 0

    def test_loop_referee_rejects_bad_inputs_identically(self):
        rng = np.random.default_rng(0)
        for builder in (build_social_graph, build_social_graph_loop):
            with pytest.raises(ValueError, match="two users"):
                builder(1, rng, np.ones(1), np.ones(1), lambda f, r: f)
            with pytest.raises(ValueError, match="length"):
                builder(3, rng, np.ones(2), np.ones(3), lambda f, r: f)
            with pytest.raises(ValueError, match="rate model"):
                builder(
                    5,
                    rng,
                    np.ones(5, dtype=int),
                    np.ones(5),
                    lambda f, r: np.full(5, -1),
                )


class TestChurnEquivalence:
    """Vectorized CSR churn == the churn-loop referee, bit for bit.

    Both models resolve the same rng draw sequence against the same
    canonical pair enumeration (subscriber-major, topics ascending), so
    on a shared seed the deltas and the evolved workloads must be
    identical -- not just distributionally equivalent.
    """

    @staticmethod
    def _assert_same_delta(da, db):
        assert np.array_equal(da.subscribed_topics, db.subscribed_topics)
        assert np.array_equal(da.subscribed_subscribers, db.subscribed_subscribers)
        assert np.array_equal(da.unsubscribed_topics, db.unsubscribed_topics)
        assert np.array_equal(
            da.unsubscribed_subscribers, db.unsubscribed_subscribers
        )
        assert np.array_equal(da.changed_topics, db.changed_topics)
        assert da.subscribed == db.subscribed  # tuple views agree too
        assert da.touched_subscribers == db.touched_subscribers
        wa, wb = da.workload, db.workload
        assert np.array_equal(wa.event_rates, wb.event_rates)
        assert np.array_equal(wa.interest_indptr, wb.interest_indptr)
        assert np.array_equal(wa.interest_topics, wb.interest_topics)

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_shared_seed_streams(self, seed):
        rng = np.random.default_rng(10_000 + seed)
        workload = edgy_workload(rng)
        config = ChurnConfig(
            unsubscribe_fraction=float(rng.choice([0.0, 0.1, 0.4])),
            subscribe_fraction=float(rng.choice([0.0, 0.1, 0.4])),
            rate_drift_sigma=float(rng.choice([0.0, 0.1, 0.4])),
        )
        fast = ChurnModel(workload, config, seed=seed)
        loop = LoopChurnModel(workload, config, seed=seed)
        for _ in range(4):
            self._assert_same_delta(fast.step(), loop.step())

    def test_no_churn_is_identity_on_both(self, tiny_workload):
        for model_cls in (ChurnModel, LoopChurnModel):
            delta = model_cls(tiny_workload, ChurnConfig(0.0, 0.0, 0.0)).step()
            assert not delta.subscribed and not delta.unsubscribed
            assert not delta.rate_changed_topics
            assert delta.workload.num_pairs == tiny_workload.num_pairs

    def test_last_topic_never_dropped(self):
        w = Workload([3.0, 5.0], [[0], [1], [0, 1]], message_size_bytes=1.0)
        for model_cls in (ChurnModel, LoopChurnModel):
            model = model_cls(w, ChurnConfig(0.9, 0.0, 0.0), seed=1)
            for _ in range(3):
                evolved = model.step().workload
                assert int(evolved.interest_sizes().min()) >= 1


def churn_problem(workload, rng):
    """A dynamic-friendly problem: multiple VMs, drift headroom."""
    max_pair = 2.0 * float(workload.event_rates.max())
    capacity = max(8.0 * max_pair, float(rng.integers(20, 80)))
    tau = float(rng.integers(1, 14))
    return MCSSProblem(workload, tau, make_unit_plan(capacity))


class TestReprovisionEquivalence:
    """Array-state reprovisioner == the reprovision-loop referee.

    With ``fresh_solve_every=1`` the vectorized reprovisioner runs the
    referee's every-epoch fresh solve and rebuild rule; on shared-seed
    churn streams the two must then produce identical epoch placements
    (per-VM assignments and order, via ``diff_placements``), identical
    costs, and identical EpochReport move counts -- the pinning
    contract of the tentpole.  Rates are integer-valued throughout, so
    every byte total is exactly representable and the comparisons are
    exact.
    """

    @staticmethod
    def _assert_same_epoch(vec_report, loop_report, vec, loop, problem_like):
        assert diff_placements(vec.placement(), loop.placement()) is None
        for field in (
            "epoch",
            "pairs_added",
            "pairs_removed",
            "pairs_moved",
            "vms_opened",
            "vms_closed",
            "rebuilt",
        ):
            assert getattr(vec_report, field) == getattr(loop_report, field), field
        assert vec_report.cost.num_vms == loop_report.cost.num_vms
        assert vec_report.cost.total_usd == pytest.approx(
            loop_report.cost.total_usd, rel=1e-12
        )
        assert vec_report.fresh_cost.total_usd == pytest.approx(
            loop_report.fresh_cost.total_usd, rel=1e-12
        )
        assert vec.selection() == loop.selection()

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_shared_churn_streams(self, seed):
        rng = np.random.default_rng(12_000 + seed)
        workload = edgy_workload(rng)
        problem = churn_problem(workload, rng)
        threshold = float(rng.choice([1.0, 1.05, 1.2]))
        config = ChurnConfig(
            unsubscribe_fraction=float(rng.choice([0.05, 0.3])),
            subscribe_fraction=float(rng.choice([0.05, 0.3])),
            rate_drift_sigma=float(rng.choice([0.0, 0.15])),
        )
        model = ChurnModel(workload, config, seed=seed)
        vec = IncrementalReprovisioner(
            problem, rebuild_threshold=threshold, fresh_solve_every=1
        )
        loop = LoopIncrementalReprovisioner(problem, rebuild_threshold=threshold)
        for _ in range(4):
            delta = model.step()
            self._assert_same_epoch(
                vec.step(delta), loop.step(delta), vec, loop, problem
            )
            audit = validate_placement(vec.problem, vec.placement())
            assert audit.ok, str(audit)

    @pytest.mark.parametrize("seed", range(8))
    def test_bare_workload_steps(self, seed):
        # A bare Workload (no delta) re-checks every subscriber.
        rng = np.random.default_rng(13_000 + seed)
        workload = edgy_workload(rng)
        problem = churn_problem(workload, rng)
        model = ChurnModel(workload, ChurnConfig(0.2, 0.2, 0.1), seed=seed)
        vec = IncrementalReprovisioner(problem, fresh_solve_every=1)
        loop = LoopIncrementalReprovisioner(problem)
        for _ in range(3):
            evolved = model.step().workload
            self._assert_same_epoch(
                vec.step(evolved), loop.step(evolved), vec, loop, problem
            )

    def test_initial_state_matches_referee(self, tiny_problem):
        vec = IncrementalReprovisioner(tiny_problem)
        loop = LoopIncrementalReprovisioner(tiny_problem)
        assert diff_placements(vec.placement(), loop.placement()) is None
        assert vec.selection() == loop.selection()

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_drift_stream(self, seed):
        # Capacity at 2-3x the hottest pair with rate drift: evictions
        # and exhausted hosts dominate the placement stream.
        rng = np.random.default_rng(14_000 + seed)
        rates = rng.integers(1, 12, size=int(rng.integers(6, 14))).astype(float)
        interests = [
            sorted(rng.choice(rates.size, size=int(rng.integers(1, 6)),
                              replace=False).tolist())
            for _ in range(int(rng.integers(30, 60)))
        ]
        workload = Workload(rates, interests, message_size_bytes=1.0)
        capacity = float(rng.uniform(2.0, 3.0)) * 2.0 * float(rates.max())
        problem = MCSSProblem(workload, float(rng.integers(5, 30)),
                              make_unit_plan(capacity))
        model = ChurnModel(workload, ChurnConfig(0.1, 0.1, 0.2), seed=seed)
        vec = IncrementalReprovisioner(problem, fresh_solve_every=1)
        loop = LoopIncrementalReprovisioner(problem)
        moved = 0
        for _ in range(5):
            delta = model.step()
            vec_report = vec.step(delta)
            self._assert_same_epoch(vec_report, loop.step(delta), vec, loop, problem)
            moved += vec_report.pairs_moved
        assert moved > 0


def masked_argmax_place(
    num_vms, place_t, used, capacity, rates, msg, g_vm, g_t, g_cnt, group_alive
):
    """The placer's former kernel, verbatim: one masked argmax per pair.

    Returns ``(vm per pair, per-VM used bytes, fleet size)``.
    """
    placed_vm = np.empty(place_t.size, dtype=np.int64)
    if place_t.size == 0:
        return placed_vm, used, num_vms
    cap_vms = num_vms + place_t.size  # worst case: one fresh VM per pair
    used_buf = np.zeros(cap_vms, dtype=np.float64)
    used_buf[:num_vms] = used
    host_sets: Dict[int, Set[int]] = {}
    hosted = group_alive & (g_cnt > 0)
    for g in np.flatnonzero(hosted).tolist():
        host_sets.setdefault(int(g_t[g]), set()).add(int(g_vm[g]))

    run_topic = -1
    host_mask = np.zeros(cap_vms, dtype=bool)
    for i in range(place_t.size):
        t = int(place_t[i])
        if t != run_topic:
            run_topic = t
            host_mask[:] = False
            hosts = host_sets.get(t)
            if hosts:
                host_mask[list(hosts)] = True
        tb = float(rates[t]) * msg
        free = capacity - used_buf[:num_vms]
        mask = host_mask[:num_vms]
        need = np.where(mask, tb, 2.0 * tb)
        fits = need <= free + 1e-9
        if fits.any():
            score = np.where(fits, free + np.where(mask, capacity, 0.0), -np.inf)
            b = int(np.argmax(score))
            used_buf[b] += need[b]
        else:
            b = num_vms
            num_vms += 1
            used_buf[b] = 2.0 * tb
        placed_vm[i] = b
        host_mask[b] = True
        host_sets.setdefault(t, set()).add(b)
    return placed_vm, used_buf[:num_vms], num_vms


@st.composite
def placer_inputs(draw):
    """Adversarial inputs for the pair placer.

    Score ties, hosts at exactly ``tb`` and ``tb +- 1e-9`` from it,
    emptied and evicted groups, ``used`` of 0 or -1e-12, capacities at
    and past 2**53 (where ``free + capacity`` rounds), non-integer
    rates, and topic runs that come back later in the stream.
    """
    num_topics = draw(st.integers(1, 5))
    num_vms = draw(st.integers(0, 10))
    capacity = draw(st.sampled_from(
        [7.0, 16.0, 33.5, 2.0 ** 53, 3.0 * 2.0 ** 53, 2.0 ** 60 + 2048.0]
    ))
    msg = draw(st.sampled_from([1.0, 0.5, 0.1, 3.0]))
    if draw(st.booleans()):
        raw = draw(st.lists(st.integers(0, 6), min_size=num_topics,
                            max_size=num_topics))
    else:
        raw = draw(st.lists(st.floats(0.0, 6.0), min_size=num_topics,
                            max_size=num_topics))
    scale = draw(st.sampled_from([1.0, capacity / 16.0]))
    rates = np.asarray(raw, dtype=np.float64) * scale
    tbs = rates * msg

    used = np.zeros(num_vms, dtype=np.float64)
    for b in range(num_vms):
        t = draw(st.integers(0, num_topics - 1))
        used[b] = draw(st.sampled_from([
            0.0,
            -1e-12,
            capacity,
            capacity - tbs[t],
            capacity - tbs[t] + 1e-9,
            capacity - tbs[t] - 1e-9,
            capacity - 2.0 * tbs[t],
            capacity * draw(st.integers(0, 8)) / 8.0,
            capacity * draw(st.floats(0.0, 1.0)),
        ]))

    g_vm, g_t, g_cnt, alive = [], [], [], []
    for b in range(num_vms):
        for t in sorted(draw(st.sets(st.integers(0, num_topics - 1), max_size=3))):
            g_vm.append(b)
            g_t.append(t)
            g_cnt.append(draw(st.integers(0, 2)))
            alive.append(draw(st.booleans()) or draw(st.booleans()))

    runs = draw(st.lists(
        st.tuples(st.integers(0, num_topics - 1), st.integers(1, 5)),
        max_size=8,
    ))
    place_t = np.asarray([t for t, n in runs for _ in range(n)], dtype=np.int64)
    return (
        num_vms, place_t, used, capacity, rates, msg,
        np.asarray(g_vm, dtype=np.int64), np.asarray(g_t, dtype=np.int64),
        np.asarray(g_cnt, dtype=np.int64), np.asarray(alive, dtype=bool),
    )


def placer_case(capacity, rates, used, hosts, place_t, msg=1.0):
    """Explicit placer inputs; ``hosts`` lists live ``(vm, topic)`` groups."""
    g = sorted(hosts)
    return (
        len(used), np.asarray(place_t, dtype=np.int64),
        np.asarray(used, dtype=np.float64), capacity,
        np.asarray(rates, dtype=np.float64), msg,
        np.asarray([b for b, _ in g], dtype=np.int64),
        np.asarray([t for _, t in g], dtype=np.int64),
        np.ones(len(g), dtype=np.int64), np.ones(len(g), dtype=bool),
    )


class TestPlaceStreamKernel:
    """The two-heap pair placer == the masked-argmax scan it replaced.

    Called directly on adversarial float inputs, where rounding decides
    fits and ties: the chosen VMs, the used-bytes vector (bit for bit)
    and the fleet size must all agree.
    """

    @settings(max_examples=400, deadline=None)
    @given(placer_inputs())
    # A full host's score ties an empty non-host's free: lowest index.
    @example(placer_case(8.0, [0.0], [0.0, 8.0], [(1, 0)], [0, 0]))
    @example(placer_case(8.0, [0.0], [8.0, 0.0], [(0, 0)], [0, 0]))
    # free + capacity rounds at 2**53: the host's score ties a free VM.
    @example(placer_case(2.0 ** 53, [1.0], [0.0, 2.0 ** 53 - 1.0], [(1, 0)], [0]))
    # Equal host scores (free 1 and 2 both round to 2**54) where only
    # the higher index fits.
    @example(placer_case(
        2.0 ** 54, [2.0], [2.0 ** 54 - 1.0, 2.0 ** 54 - 2.0], [(0, 0), (1, 0)], [0]
    ))
    def test_matches_masked_argmax_scan(self, inputs):
        num_vms, place_t, used, capacity, rates, msg = inputs[:6]
        groups = inputs[6:]
        placer = IncrementalReprovisioner.__new__(IncrementalReprovisioner)
        placer._num_vms = num_vms
        got_vm, got_used = placer._place_stream(
            place_t, used.copy(), capacity, rates, msg, *groups
        )
        want_vm, want_used, want_vms = masked_argmax_place(
            num_vms, place_t, used.copy(), capacity, rates, msg, *groups
        )
        assert got_vm.tolist() == want_vm.tolist()
        assert got_used.tobytes() == np.asarray(want_used, dtype=np.float64).tobytes()
        assert placer.num_vms == want_vms


class TestBackendEquivalence:
    """The same solve on RAM-resident and mmap-backed storage, bit for bit.

    Backends change residency, never values (the contract of
    :mod:`repro.core.backend`): the ``backed_small_zipf`` fixture runs
    each case once per backend, and every result is compared against a
    freshly built in-RAM reference workload.
    """

    @staticmethod
    def _reference_problem(workload):
        capacity = 4.0 * float(workload.event_rates.max()) * workload.message_size_bytes
        return MCSSProblem(workload, 100.0, make_unit_plan(capacity))

    def test_select_pack_validate_identical(self, backed_small_zipf, small_zipf):
        problem = self._reference_problem(backed_small_zipf)
        ref_problem = self._reference_problem(small_zipf)
        selection = GreedySelectPairs().select(problem)
        reference = GreedySelectPairs().select(ref_problem)
        assert selection == reference
        assert list(selection.topics) == list(reference.topics)
        placement = CustomBinPacking(CBPOptions.ladder("e")).pack(problem, selection)
        ref_placement = CustomBinPacking(CBPOptions.ladder("e")).pack(
            ref_problem, reference
        )
        assert_identical_placements(placement, ref_placement, ref_problem)
        report = validate_placement(problem, placement)
        loop_report = validate_placement_loop(problem, placement)
        assert report.ok and loop_report.ok

    def test_satisfaction_reductions_identical(self, backed_small_zipf, small_zipf):
        got = delivered_rates(
            backed_small_zipf, {0: [0, 1], 5: [2], 7: list(range(10))}
        )
        want = delivered_rates(small_zipf, {0: [0, 1], 5: [2], 7: list(range(10))})
        np.testing.assert_array_equal(got, want)


class TestShardedMmapPin:
    """The acceptance pin: out-of-core == in-RAM at 100k subscribers.

    One 100k-subscriber zipf instance solved twice -- the plain
    single-process in-RAM path, and the sharded path on an mmap-backed
    reload of the same workload with forked workers -- must agree on
    the selection (group order included), the per-VM placements, and
    the costs, exactly.
    """

    def test_sharded_mmap_solve_bit_exact(self, tmp_path):
        from repro.selection import ShardedGreedySelectPairs
        from repro.solver import MCSSSolver, sharded_validate
        from repro.workloads import load_workload, save_workload, zipf_workload

        workload = zipf_workload(2000, 100_000, mean_interest=8.0, seed=7)
        capacity = (
            max(
                2.5 * float(workload.event_rates.max()),
                float(workload.event_rates.sum()) / 8.0,
            )
            * workload.message_size_bytes
        )
        problem = MCSSProblem(workload, 100.0, make_unit_plan(float(capacity)))
        plain = MCSSSolver.paper().solve(problem)

        mapped = load_workload(save_workload(workload, tmp_path / "pin"), mmap=True)
        mmap_problem = MCSSProblem(mapped, 100.0, make_unit_plan(float(capacity)))
        sharded = MCSSSolver.paper().solve_sharded(
            mmap_problem, shard_size=25_000, workers=2
        )

        # Selection identity down to group order and within-group order.
        pt, pi, ps = plain.selection.csr_arrays()
        st, si, ss = sharded.selection.csr_arrays()
        np.testing.assert_array_equal(st, pt)
        np.testing.assert_array_equal(si, pi)
        np.testing.assert_array_equal(ss, ps)
        # Placement and cost identity.
        assert diff_placements(sharded.placement, plain.placement) is None
        assert sharded.cost.num_vms == plain.cost.num_vms
        assert sharded.cost.total_usd == plain.cost.total_usd
        # And the topic-sharded validator agrees with the plain one.
        report = sharded_validate(mmap_problem, sharded.placement, shards=3, workers=2)
        assert report.ok == plain.validation.ok is True
        # The sharded Stage 1 run again directly also matches (selector
        # entry point, not just the solver wrapper).
        direct = ShardedGreedySelectPairs(shard_size=25_000, workers=2).select(
            mmap_problem
        )
        assert direct == plain.selection


class TestValidatorEquivalence:
    """Vectorized validate_placement == the loop referee, verdict for verdict."""

    @staticmethod
    def _assert_same_verdict(problem, placement):
        fast = validate_placement(problem, placement)
        slow = validate_placement_loop(problem, placement)
        assert fast.ok == slow.ok
        assert fast.capacity_ok == slow.capacity_ok
        assert fast.satisfaction_ok == slow.satisfaction_ok
        assert fast.accounting_ok == slow.accounting_ok
        assert fast.overloaded_vms == slow.overloaded_vms
        assert fast.unsatisfied_subscribers == slow.unsatisfied_subscribers
        assert fast.messages == slow.messages

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_random_solved_placements(self, seed):
        rng = np.random.default_rng(4000 + seed)
        workload = edgy_workload(rng)
        max_rate = float(workload.event_rates.max())
        tau = float(rng.integers(1, 12))
        # Capacity: tight enough to need several VMs, always feasible.
        capacity = max(2.0 * max_rate, float(rng.integers(2, 40)))
        problem = MCSSProblem(workload, tau, make_unit_plan(capacity))
        selection = GreedySelectPairs().select(problem)
        placement = FFBinPacking().pack(problem, selection)
        self._assert_same_verdict(problem, placement)

    @pytest.mark.parametrize("seed", range(8))
    def test_broken_placements_same_verdict(self, seed):
        rng = np.random.default_rng(5000 + seed)
        workload = edgy_workload(rng)
        max_rate = float(workload.event_rates.max())
        big = MCSSProblem(workload, 8.0, make_unit_plan(1e9))
        placement = FFBinPacking().pack(big, GreedySelectPairs().select(big))
        # Validate against a much tighter problem: overloads and (with a
        # higher tau) unsatisfied subscribers must be reported the same.
        tight = MCSSProblem(workload, 50.0, make_unit_plan(2.0 * max_rate))
        self._assert_same_verdict(tight, placement)

    def test_empty_placement_and_tau_zero(self, tiny_workload):
        problem = MCSSProblem(tiny_workload, 0, make_unit_plan(100.0))
        self._assert_same_verdict(problem, problem.empty_placement())
        problem30 = MCSSProblem(tiny_workload, 30, make_unit_plan(100.0))
        self._assert_same_verdict(problem30, problem30.empty_placement())

    def test_duplicate_assignment_same_verdict(self, tiny_problem):
        p = tiny_problem.empty_placement()
        b = p.new_vm()
        p.assign(b, 0, [0])
        p.assign(b, 0, [0])
        self._assert_same_verdict(tiny_problem, p)


class TestCheckpointResumeEquivalence:
    """A killed-and-resumed churn run == the uninterrupted run, bit for bit.

    The checkpoint carries the reprovisioner's complete pair state,
    cadence counters, and the churn model's bit-generator position
    (:mod:`repro.resilience.checkpoint`), so resuming draws exactly
    what an undisturbed run would have drawn -- the pin is per-epoch
    report fields, costs, placements, and final selection identity.
    """

    CONFIG = ChurnConfig(
        unsubscribe_fraction=0.2, subscribe_fraction=0.2, rate_drift_sigma=0.1
    )

    @staticmethod
    def _assert_same_report(got, want):
        for field in (
            "epoch",
            "pairs_added",
            "pairs_removed",
            "pairs_moved",
            "vms_opened",
            "vms_closed",
            "rebuilt",
        ):
            assert getattr(got, field) == getattr(want, field), field
        assert got.cost.num_vms == want.cost.num_vms
        assert got.cost.total_usd == want.cost.total_usd

    @pytest.mark.parametrize("seed", range(8))
    def test_snapshot_roundtrip_mid_run(self, seed, tmp_path):
        from repro.resilience import load_checkpoint, save_checkpoint

        rng = np.random.default_rng(14_000 + seed)
        workload = edgy_workload(rng)
        problem = churn_problem(workload, rng)
        cadence = int(rng.choice([1, 3]))  # exercise the fresh-solve counter

        ref_model = ChurnModel(workload, self.CONFIG, seed=seed)
        ref = IncrementalReprovisioner(problem, fresh_solve_every=cadence)
        ref_reports = [ref.step(ref_model.step()) for _ in range(6)]

        model = ChurnModel(workload, self.CONFIG, seed=seed)
        reprov = IncrementalReprovisioner(problem, fresh_solve_every=cadence)
        reports = [reprov.step(model.step()) for _ in range(3)]
        path = str(tmp_path / "mid.npz")
        save_checkpoint(path, reprov, model)
        del reprov, model  # the "kill": nothing survives but the file
        reprov, model = load_checkpoint(path, problem.plan)
        assert reprov.epoch == 3
        reports += [reprov.step(model.step()) for _ in range(3)]

        for got, want in zip(reports, ref_reports):
            self._assert_same_report(got, want)
        assert diff_placements(reprov.placement(), ref.placement()) is None
        assert reprov.selection() == ref.selection()

    @pytest.mark.parametrize("seed", range(4))
    def test_runner_resume_matches_uninterrupted(self, seed, tmp_path):
        from repro.experiments import run_epoch_experiment

        rng = np.random.default_rng(15_000 + seed)
        workload = edgy_workload(rng)
        problem = churn_problem(workload, rng)
        path = str(tmp_path / "run.npz")

        ref = run_epoch_experiment(
            workload, problem.plan, problem.tau, 6, seed=seed
        )

        first = run_epoch_experiment(
            workload, problem.plan, problem.tau, 4, seed=seed,
            checkpoint_path=path, checkpoint_every=2,
        )
        assert first.checkpoints_written == 2
        resumed = run_epoch_experiment(
            workload, problem.plan, problem.tau, 6, seed=seed,
            checkpoint_path=path, resume=True,
        )
        assert resumed.resumed_from_epoch == 4
        assert len(resumed.reports) == 2

        reports = first.reports + resumed.reports
        assert len(reports) == len(ref.reports) == 6
        for got, want in zip(reports, ref.reports):
            self._assert_same_report(got, want)
        assert diff_placements(
            resumed.reprovisioner.placement(), ref.reprovisioner.placement()
        ) is None


class TestServingEquivalence:
    """The serving path == the reprovision-loop referee, split however.

    Each epoch's churn is chopped into fragments at *random* positions
    of its operation stream, offered to the ``MicroEpochService``'s
    ingestion queue, and sealed into one micro-epoch; with
    ``fresh_solve_every=1`` the serving trajectory (placements, costs,
    report fields, selections) must be bit-identical to the referee
    stepping the same churn epochs whole -- fragment boundaries are
    wire format, not semantics.
    """

    @pytest.mark.parametrize("seed", range(NUM_RANDOM_WORKLOADS))
    def test_random_fragment_splits_match_referee(self, seed):
        from repro.serving import MicroEpochService, ServingConfig

        rng = np.random.default_rng(16_000 + seed)
        workload = edgy_workload(rng)
        problem = churn_problem(workload, rng)
        threshold = float(rng.choice([1.0, 1.05, 1.2]))
        config = ChurnConfig(
            unsubscribe_fraction=float(rng.choice([0.05, 0.3])),
            subscribe_fraction=float(rng.choice([0.05, 0.3])),
            rate_drift_sigma=float(rng.choice([0.0, 0.15])),
        )
        model = ChurnModel(workload, config, seed=seed)
        service = MicroEpochService(
            problem,
            ServingConfig(rebuild_threshold=threshold, fresh_solve_every=1),
        )
        loop = LoopIncrementalReprovisioner(problem, rebuild_threshold=threshold)

        for _ in range(4):
            delta = model.step()
            num_ops = int(
                delta.subscribed_topics.size + delta.unsubscribed_topics.size
            )
            cuts = rng.integers(
                0, num_ops + 1, size=int(rng.integers(0, 5))
            ).tolist()
            service.ingest_delta(delta, cuts)
            micro = service.run_micro_epoch(delta.workload, delta.changed_topics)
            loop_report = loop.step(delta)
            TestReprovisionEquivalence._assert_same_epoch(
                micro.report,
                loop_report,
                service.reprovisioner,
                loop,
                problem,
            )
            assert micro.ops >= num_ops  # + changed topics
            assert service.queue_depth == 0  # sealed epochs drain fully
