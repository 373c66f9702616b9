"""Tests for the workload runner and the linear-scan baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.metrics import L2
from repro.mtree import NodeLayout, bulk_load
from repro.reliability import FaultPolicy, RetryPolicy
from repro.vptree import VPTree
from repro.workloads import (
    LinearScanBaseline,
    run_knn_workload,
    run_range_workload,
    run_vptree_range_workload,
)


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(0)
    points = rng.random((300, 3))
    layout = NodeLayout(node_size_bytes=256, object_bytes=12)
    tree = bulk_load(points, L2(), layout, seed=1)
    queries = rng.random((20, 3))
    return points, tree, queries


class TestRangeWorkload:
    def test_means_match_manual(self, setup):
        _points, tree, queries = setup
        measurement = run_range_workload(tree, queries, 0.3)
        nodes, dists, results = [], [], []
        for q in queries:
            out = tree.range_query(q, 0.3)
            nodes.append(out.stats.nodes_accessed)
            dists.append(out.stats.dists_computed)
            results.append(len(out))
        assert measurement.mean_nodes == pytest.approx(np.mean(nodes))
        assert measurement.mean_dists == pytest.approx(np.mean(dists))
        assert measurement.mean_results == pytest.approx(np.mean(results))
        assert measurement.n_queries == 20

    def test_stderr(self, setup):
        _points, tree, queries = setup
        measurement = run_range_workload(tree, queries, 0.3)
        assert measurement.stderr_nodes() >= 0
        assert measurement.stderr_dists() >= 0

    def test_empty_workload_rejected(self, setup):
        _points, tree, _queries = setup
        with pytest.raises(InvalidParameterError):
            run_range_workload(tree, [], 0.3)


class TestKNNWorkload:
    def test_nn_distance_recorded(self, setup):
        points, tree, queries = setup
        measurement = run_knn_workload(tree, queries, 3)
        assert measurement.mean_nn_distance is not None
        # The mean 3rd-NN distance must match brute force.
        baseline = LinearScanBaseline(list(points), L2(), 12, 4096)
        expected = np.mean(
            [baseline.knn_query(q, 3)[0][-1][2] for q in queries]
        )
        assert measurement.mean_nn_distance == pytest.approx(expected)

    def test_results_always_k(self, setup):
        _points, tree, queries = setup
        measurement = run_knn_workload(tree, queries, 5)
        assert measurement.mean_results == 5.0


class TestVPTreeWorkload:
    def test_runs(self, setup):
        points, _tree, queries = setup
        vptree = VPTree.build(list(points), L2(), arity=3, seed=2)
        measurement = run_vptree_range_workload(vptree, queries, 0.2)
        assert measurement.mean_dists == measurement.mean_nodes
        assert measurement.n_queries == 20


class TestErrorIsolation:
    def test_fault_free_run_reports_no_failures(self, setup):
        _points, tree, queries = setup
        measurement = run_range_workload(tree, queries, 0.3)
        assert measurement.failed_queries == 0
        assert measurement.errors == []
        assert measurement.success_rate == 1.0

    def test_zero_rate_policy_changes_nothing(self, setup):
        _points, tree, queries = setup
        plain = run_range_workload(tree, queries, 0.3)
        gated = run_range_workload(
            tree, queries, 0.3, fault_policy=FaultPolicy(seed=1)
        )
        assert gated.failed_queries == 0
        assert gated.mean_nodes == plain.mean_nodes
        assert gated.mean_dists == plain.mean_dists
        assert gated.n_queries == plain.n_queries

    def test_200_query_workload_survives_5pct_read_faults(self, setup):
        """The acceptance scenario: FaultPolicy(read_fail_rate=0.05) over
        200 range queries completes with failed_queries reported and no
        uncaught exception."""
        points, tree, _queries = setup
        rng = np.random.default_rng(42)
        queries = rng.random((200, 3))
        measurement = run_range_workload(
            tree,
            queries,
            0.3,
            fault_policy=FaultPolicy(read_fail_rate=0.05, seed=7),
        )
        assert measurement.n_queries + measurement.failed_queries == 200
        assert measurement.failed_queries > 0
        assert 0.0 < measurement.success_rate < 1.0
        assert measurement.errors
        assert "IOFaultError" in measurement.errors[0]

    def test_fault_injection_deterministic(self, setup):
        _points, tree, queries = setup
        runs = [
            run_range_workload(
                tree,
                queries,
                0.3,
                fault_policy=FaultPolicy(read_fail_rate=0.3, seed=5),
            ).failed_queries
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_retry_recovers_queries(self, setup):
        """With a retry budget, most fault-hit queries succeed anyway."""
        _points, tree, queries = setup
        rng = np.random.default_rng(8)
        big = rng.random((100, 3))
        without = run_range_workload(
            tree,
            big,
            0.3,
            fault_policy=FaultPolicy(read_fail_rate=0.1, seed=9),
        )
        with_retry = run_range_workload(
            tree,
            big,
            0.3,
            fault_policy=FaultPolicy(read_fail_rate=0.1, seed=9),
            retry=RetryPolicy(max_attempts=6, seed=9, sleep=lambda _d: None),
        )
        assert with_retry.failed_queries < without.failed_queries

    def test_knn_workload_fault_isolation(self, setup):
        _points, tree, queries = setup
        measurement = run_knn_workload(
            tree,
            queries,
            3,
            fault_policy=FaultPolicy(read_fail_rate=0.5, seed=3),
        )
        assert measurement.n_queries + measurement.failed_queries == 20

    def test_capture_errors_isolates_poisoned_query(self, setup):
        """A query object the metric cannot digest fails alone."""
        _points, tree, queries = setup
        poisoned = list(queries) + [None]
        with pytest.raises(Exception):
            run_range_workload(tree, poisoned, 0.3)
        measurement = run_range_workload(
            tree, poisoned, 0.3, capture_errors=True
        )
        assert measurement.n_queries == 20
        assert measurement.failed_queries == 1

    def test_all_queries_failing_yields_degenerate_measurement(self, setup):
        _points, tree, queries = setup
        measurement = run_range_workload(
            tree,
            queries,
            0.3,
            fault_policy=FaultPolicy(read_fail_rate=1.0, seed=2),
        )
        assert measurement.n_queries == 0
        assert measurement.failed_queries == 20
        assert measurement.success_rate == 0.0
        assert measurement.stderr_nodes() == 0.0

    def test_empty_workload_still_rejected_with_capture(self, setup):
        _points, tree, _queries = setup
        with pytest.raises(InvalidParameterError):
            run_range_workload(tree, [], 0.3, capture_errors=True)

    def test_vptree_capture(self, setup):
        points, _tree, queries = setup
        vptree = VPTree.build(list(points), L2(), arity=3, seed=2)
        poisoned = list(queries) + [np.ones(7)]  # wrong dimensionality
        measurement = run_vptree_range_workload(
            vptree, poisoned, 0.2, capture_errors=True
        )
        assert measurement.n_queries == 20
        assert measurement.failed_queries == 1


class TestLinearScanBaseline:
    def test_range_exact(self, setup):
        points, _tree, queries = setup
        baseline = LinearScanBaseline(list(points), L2(), 12, 4096)
        matches, nodes, dists = baseline.range_query(queries[0], 0.4)
        expected = [
            i
            for i, p in enumerate(points)
            if L2().distance(queries[0], p) <= 0.4
        ]
        assert [i for i, _o, _d in matches] == expected
        assert dists == len(points)
        assert nodes == int(np.ceil(len(points) * 12 / 4096))

    def test_knn_sorted(self, setup):
        points, _tree, queries = setup
        baseline = LinearScanBaseline(list(points), L2(), 12, 4096)
        neighbors, _nodes, dists = baseline.knn_query(queries[0], 10)
        ds = [d for _i, _o, d in neighbors]
        assert ds == sorted(ds)
        assert len(neighbors) == 10
        assert dists == len(points)

    def test_validation(self, setup):
        points, _tree, _queries = setup
        baseline = LinearScanBaseline(list(points), L2(), 12, 4096)
        with pytest.raises(InvalidParameterError):
            baseline.range_query(points[0], -0.1)
        with pytest.raises(InvalidParameterError):
            baseline.range_query(points[0], float("nan"))
        with pytest.raises(InvalidParameterError):
            baseline.knn_query(points[0], 0)
        with pytest.raises(InvalidParameterError):
            LinearScanBaseline(list(points), L2(), 100, 50)
