"""Tests for cost-based plan selection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    NodeBasedCostModel,
    VPTreeCostModel,
    estimate_distance_histogram,
)
from repro.datasets import clustered_dataset
from repro.exceptions import InvalidParameterError
from repro.mtree import bulk_load, collect_node_stats, vector_layout
from repro.optimizer import (
    LinearScanPlan,
    MTreeRangePlan,
    SimilarityQueryOptimizer,
    VPTreeRangePlan,
)
from repro.storage import DiskModel
from repro.vptree import VPTree
from repro.workloads import LinearScanBaseline


@pytest.fixture(scope="module")
def catalog():
    data = clustered_dataset(2500, 8, seed=1)
    hist = estimate_distance_histogram(
        data.points, data.metric, data.d_plus, n_bins=100
    )
    mtree = bulk_load(data.points, data.metric, vector_layout(8), seed=2)
    mtree_model = NodeBasedCostModel(
        hist, collect_node_stats(mtree, data.d_plus), data.size
    )
    vptree = VPTree.build(list(data.points), data.metric, arity=3, seed=3)
    vptree_model = VPTreeCostModel(hist, data.size, arity=3)
    baseline = LinearScanBaseline(list(data.points), data.metric, 32, 4096)
    plans = [
        MTreeRangePlan(mtree, mtree_model),
        VPTreeRangePlan(vptree, vptree_model),
        LinearScanPlan(baseline),
    ]
    disk = DiskModel(positioning_ms=10.0, transfer_ms_per_kb=1.0, distance_ms=5.0)
    return data, SimilarityQueryOptimizer(plans, disk)


class TestChoice:
    def test_ranks_all_plans(self, catalog):
        _data, optimizer = catalog
        choice = optimizer.choose_range_plan(0.1)
        assert len(choice.ranked) == 3
        totals = [estimate.total_ms for estimate in choice.ranked]
        assert totals == sorted(totals)
        assert choice.best.total_ms == totals[0]

    def test_index_wins_selective_query(self, catalog):
        """At tiny radius the M-tree/vp-tree must beat the scan."""
        _data, optimizer = catalog
        choice = optimizer.choose_range_plan(0.02)
        assert choice.best.plan_name != "linear-scan"

    def test_scan_wins_unselective_query(self, catalog):
        """At radius ~ d_plus every index visits everything plus overhead;
        the sequential scan is predicted cheapest."""
        _data, optimizer = catalog
        choice = optimizer.choose_range_plan(0.95)
        scan = choice.estimate_for("linear-scan")
        mtree = choice.estimate_for("mtree")
        assert scan is not None and mtree is not None
        assert scan.total_ms <= mtree.total_ms

    def test_knn_choice(self, catalog):
        _data, optimizer = catalog
        choice = optimizer.choose_knn_plan(1)
        assert choice.best.plan_name in ("mtree", "vptree")

    def test_estimate_for_unknown(self, catalog):
        _data, optimizer = catalog
        choice = optimizer.choose_range_plan(0.1)
        assert choice.estimate_for("nonexistent") is None


class TestExecution:
    def test_run_range_returns_correct_answer(self, catalog):
        data, optimizer = catalog
        rng = np.random.default_rng(4)
        query = rng.random(8)
        outcome = optimizer.run_range(query, 0.15)
        expected = sorted(
            i
            for i, p in enumerate(data.points)
            if data.metric.distance(query, p) <= 0.15
        )
        assert sorted(i for i, _o, _d in outcome.items) == expected
        assert outcome.actual_ms > 0

    def test_answers_identical_across_plans(self, catalog):
        """Every plan must return the same result set (physical choice
        cannot change semantics)."""
        data, optimizer = catalog
        rng = np.random.default_rng(5)
        query = rng.random(8)
        results = {
            plan.name: sorted(
                i
                for i, _o, _d in plan.execute_range(
                    query, 0.12, optimizer.disk
                ).items
            )
            for plan in optimizer.plans
        }
        assert len(set(map(tuple, results.values()))) == 1

    def test_run_knn(self, catalog):
        data, optimizer = catalog
        query = np.random.default_rng(6).random(8)
        outcome = optimizer.run_knn(query, 3)
        assert len(outcome.items) == 3

    def test_prediction_tracks_execution_for_chosen_plan(self, catalog):
        """The winner's predicted cost should be within a factor of the
        cost it actually pays."""
        data, optimizer = catalog
        rng = np.random.default_rng(7)
        for radius in (0.05, 0.2):
            choice = optimizer.choose_range_plan(radius)
            plan = optimizer._plan_by_name(choice.best.plan_name)
            actual = np.mean(
                [
                    plan.execute_range(
                        rng.random(8), radius, optimizer.disk
                    ).actual_ms
                    for _ in range(10)
                ]
            )
            assert 0.3 * actual < choice.best.total_ms < 3.0 * actual


class TestCrossover:
    def test_crossover_exists(self, catalog):
        """Somewhere between selective and unselective radii the winner
        flips from an index to the scan."""
        _data, optimizer = catalog
        crossover = optimizer.range_crossover_radius(
            "mtree", "linear-scan", 0.01, 1.0
        )
        assert crossover is not None
        assert 0.01 < crossover < 1.0
        # On either side of the crossover the predicted order flips.
        below = optimizer.choose_range_plan(crossover * 0.5)
        above = optimizer.choose_range_plan(min(1.0, crossover * 1.5))
        below_mtree = below.estimate_for("mtree").total_ms
        below_scan = below.estimate_for("linear-scan").total_ms
        above_mtree = above.estimate_for("mtree").total_ms
        above_scan = above.estimate_for("linear-scan").total_ms
        assert (below_mtree < below_scan) != (above_mtree < above_scan)

    def test_invalid_crossover_window(self, catalog):
        _data, optimizer = catalog
        with pytest.raises(InvalidParameterError):
            optimizer.range_crossover_radius("mtree", "linear-scan", 0.5, 0.1)


class TestExplain:
    def test_explain_range_lists_all_plans(self, catalog):
        _data, optimizer = catalog
        text = optimizer.explain_range(0.1)
        assert "EXPLAIN range" in text
        for name in ("mtree", "vptree", "linear-scan"):
            assert name in text
        # Cheapest plan is marked.
        assert "-> 1." in text

    def test_explain_ranks_cheapest_first(self, catalog):
        _data, optimizer = catalog
        text = optimizer.explain_range(0.05)
        first_line = [
            line for line in text.splitlines() if line.startswith("->")
        ][0]
        assert optimizer.choose_range_plan(0.05).best.plan_name in first_line

    def test_explain_knn(self, catalog):
        _data, optimizer = catalog
        text = optimizer.explain_knn(3)
        assert "EXPLAIN NN(Q, 3)" in text
        assert "-> 1." in text


class TestValidation:
    def test_empty_plans_rejected(self):
        with pytest.raises(InvalidParameterError):
            SimilarityQueryOptimizer([])

    def test_duplicate_names_rejected(self, catalog):
        data, optimizer = catalog
        with pytest.raises(InvalidParameterError):
            SimilarityQueryOptimizer([optimizer.plans[0], optimizer.plans[0]])

    def test_negative_radius(self, catalog):
        _data, optimizer = catalog
        with pytest.raises(InvalidParameterError):
            optimizer.choose_range_plan(-0.1)
        with pytest.raises(InvalidParameterError):
            optimizer.choose_range_plan(float("nan"))
        with pytest.raises(InvalidParameterError):
            optimizer.choose_knn_plan(0)
