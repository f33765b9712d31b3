"""Tests for the two-stage MCSSSolver pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MCSSProblem, validate_placement
from repro.packing import CustomBinPacking, FFBinPacking, diff_placements
from repro.selection import GreedySelectPairs, RandomSelectPairs
from repro.solver import MCSSSolver
from tests.conftest import make_unit_plan


@pytest.fixture
def problem(small_zipf):
    return MCSSProblem(small_zipf, 100, make_unit_plan(5e7))


@pytest.fixture
def tight_problem(small_zipf):
    """Small VMs: every rung spills over a multi-VM fleet."""
    return MCSSProblem(small_zipf, 10, make_unit_plan(8e6))


class TestPresets:
    def test_paper_preset(self):
        solver = MCSSSolver.paper()
        assert isinstance(solver.selector, GreedySelectPairs)
        assert isinstance(solver.packer, CustomBinPacking)
        opts = solver.packer.options
        assert opts.expensive_topic_first and opts.most_free_vm_first
        assert opts.cost_based_decision

    def test_naive_preset(self):
        solver = MCSSSolver.naive()
        assert isinstance(solver.selector, RandomSelectPairs)
        assert isinstance(solver.packer, FFBinPacking)

    def test_ladder_a_is_gsp_ffbp(self):
        solver = MCSSSolver.ladder("a")
        assert isinstance(solver.selector, GreedySelectPairs)
        assert isinstance(solver.packer, FFBinPacking)

    @pytest.mark.parametrize("rung", ["b", "c", "d", "e"])
    def test_ladder_rungs_use_cbp(self, rung):
        solver = MCSSSolver.ladder(rung)
        assert isinstance(solver.packer, CustomBinPacking)

    def test_from_names(self):
        solver = MCSSSolver.from_names("rsp", "cbp")
        assert isinstance(solver.selector, RandomSelectPairs)
        assert isinstance(solver.packer, CustomBinPacking)

    def test_from_names_unknown(self):
        with pytest.raises(KeyError):
            MCSSSolver.from_names("nope", "cbp")
        with pytest.raises(KeyError):
            MCSSSolver.from_names("gsp", "nope")


class TestSolve:
    def test_solution_fields(self, problem):
        solution = MCSSSolver.paper().solve(problem)
        assert solution.problem is problem
        assert solution.selector_name == "gsp"
        assert solution.packer_name == "cbp"
        assert solution.selection_seconds >= 0
        assert solution.packing_seconds >= 0
        assert solution.total_seconds == pytest.approx(
            solution.selection_seconds + solution.packing_seconds
        )
        assert solution.validation.ok

    def test_cost_matches_placement(self, problem):
        solution = MCSSSolver.paper().solve(problem)
        recomputed = problem.cost_of(solution.placement)
        assert solution.cost.total_usd == pytest.approx(recomputed.total_usd)

    def test_placement_covers_selection(self, problem):
        solution = MCSSSolver.paper().solve(problem)
        assert solution.placement.to_selection() == solution.selection

    def test_validation_enabled_by_default(self, problem):
        # Produced placements are audited; a healthy run passes.
        solution = MCSSSolver.paper().solve(problem)
        assert validate_placement(problem, solution.placement).ok

    def test_paper_beats_naive(self, problem):
        paper = MCSSSolver.paper().solve(problem)
        naive = MCSSSolver.naive().solve(problem)
        assert paper.cost.total_usd <= naive.cost.total_usd

    def test_summary_mentions_names(self, problem):
        text = MCSSSolver.paper().solve(problem).summary()
        assert "gsp" in text and "cbp" in text


class TestSolveWithSelection:
    """Stage-2-only entry point: reuse one Stage-1 selection across packers."""

    def test_matches_full_solve(self, problem):
        solver = MCSSSolver.paper()
        full = solver.solve(problem)
        shared = GreedySelectPairs().select(problem)
        reused = solver.solve_with_selection(problem, shared, selection_seconds=0.5)
        # GSP is deterministic, so packing the shared selection must
        # reproduce the full solve exactly.
        assert reused.selection == full.selection
        assert reused.cost.total_usd == pytest.approx(full.cost.total_usd)
        assert reused.cost.num_vms == full.cost.num_vms
        assert reused.selection_seconds == 0.5
        assert reused.validation.ok

    def test_shared_selection_across_rungs(self, problem):
        shared = GreedySelectPairs().select(problem)
        for rung in ("a", "b", "c", "d", "e"):
            solution = MCSSSolver.ladder(rung).solve_with_selection(problem, shared)
            assert solution.selection is shared
            assert solution.placement.num_pairs == shared.num_pairs
            assert solution.validation.ok

    @pytest.mark.parametrize("rung", ["a", "b", "c", "d", "e"])
    def test_rung_reproduces_its_full_solve(self, tight_problem, rung):
        # The ladder packs every rung over one shared GSP selection; a
        # stand-alone solve (own GSP) must give the same placement.
        solver = MCSSSolver.ladder(rung)
        shared = GreedySelectPairs().select(tight_problem)
        reused = solver.solve_with_selection(tight_problem, shared)
        full = solver.solve(tight_problem)
        assert reused.cost.num_vms > 1
        assert diff_placements(reused.placement, full.placement) is None
        assert reused.cost.total_usd == full.cost.total_usd
        assert reused.cost.num_vms == full.cost.num_vms

    def test_packing_leaves_selection_untouched(self, tight_problem):
        shared = GreedySelectPairs().select(tight_problem)
        topics, subs = (a.copy() for a in shared.pair_arrays())
        for rung in ("a", "b", "c", "d", "e"):
            MCSSSolver.ladder(rung).solve_with_selection(tight_problem, shared)
        now_topics, now_subs = shared.pair_arrays()
        np.testing.assert_array_equal(now_topics, topics)
        np.testing.assert_array_equal(now_subs, subs)

    def test_solver_is_stateless_across_problems(self, problem, tight_problem):
        # One solver instance, interleaved problems: the repeat solve
        # must not see anything left over from the previous pack.
        solver = MCSSSolver.paper()
        first = solver.solve(tight_problem)
        solver.solve(problem)
        again = solver.solve(tight_problem)
        assert diff_placements(first.placement, again.placement) is None
        assert first.cost.total_usd == again.cost.total_usd

    def test_unvalidated_solver_reports_insufficient_selection(self, problem):
        from repro.core import PairSelection

        solver = MCSSSolver(GreedySelectPairs(), CustomBinPacking(), validate=False)
        solution = solver.solve_with_selection(problem, PairSelection({}))
        assert not solution.validation.ok
        assert solution.placement.num_vms == 0

    def test_insufficient_selection_rejected(self, problem):
        from repro.core import PairSelection

        with pytest.raises(ValueError):
            MCSSSolver.paper().solve_with_selection(problem, PairSelection({}))
