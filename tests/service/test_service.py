"""QueryService pipeline: outcomes, shedding, breakers, deadlines."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import observability
from repro.context import Context, Deadline
from repro.exceptions import IOFaultError, InvalidParameterError
from repro.reliability import FaultPolicy, FaultyPageStore
from repro.service import (
    AdmissionController,
    CircuitBreaker,
    MTreeBackend,
    OptimizerBackend,
    QueryRequest,
    QueryService,
    ServiceReport,
    TokenBucket,
    VPTreeBackend,
    percentile,
)
from repro.storage import PageStore


@pytest.fixture(scope="module")
def served_tree(request):
    from repro.datasets import clustered_dataset
    from repro.mtree import bulk_load, vector_layout

    data = clustered_dataset(size=400, dim=4, seed=11)
    tree = bulk_load(data.points, data.metric, vector_layout(4), seed=11)
    return data, tree


def make_requests(data, n, kind="range", seed=0):
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(n):
        if kind == "range":
            requests.append(
                QueryRequest(
                    "range",
                    rng.random(4),
                    radius=0.2 * data.d_plus,
                    request_id=i,
                )
            )
        else:
            requests.append(
                QueryRequest("knn", rng.random(4), k=3, request_id=i)
            )
    return requests


class TestQueryRequest:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            QueryRequest("scan", np.zeros(2))
        with pytest.raises(InvalidParameterError):
            QueryRequest("range", np.zeros(2))  # no radius
        with pytest.raises(InvalidParameterError):
            QueryRequest("knn", np.zeros(2), k=0)


    @pytest.mark.parametrize("radius", [-0.1, float("nan")])
    def test_range_radius_must_be_non_negative(self, radius):
        with pytest.raises(InvalidParameterError):
            QueryRequest("range", np.zeros(2), radius=radius)


class TestPercentile:
    def test_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 50) == pytest.approx(2.5)

    def test_single_value(self):
        assert percentile([7.0], 99) == 7.0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            percentile([], 50)
        with pytest.raises(InvalidParameterError):
            percentile([1.0], 150)


class TestSubmit:
    def test_ok_outcome_matches_direct_query(self, served_tree):
        data, tree = served_tree
        service = QueryService(MTreeBackend(tree))
        request = make_requests(data, 1)[0]
        outcome = service.submit(request)
        assert outcome.ok and outcome.status == "ok"
        direct = tree.range_query(request.query, request.radius)
        assert sorted(o for o, _v, _d in outcome.items) == sorted(
            direct.oids()
        )
        assert outcome.nodes == direct.stats.nodes_accessed
        assert outcome.latency_s > 0

    def test_knn_submit(self, served_tree):
        data, tree = served_tree
        service = QueryService(MTreeBackend(tree))
        outcome = service.submit(make_requests(data, 1, kind="knn")[0])
        assert outcome.ok
        assert len(outcome.items) == 3

    def test_expired_deadline_is_a_deadline_outcome(self, served_tree):
        data, tree = served_tree
        clock = [0.0]
        deadline = Deadline.after(0.01, clock=lambda: clock[0])
        clock[0] = 1.0
        service = QueryService(MTreeBackend(tree))
        outcome = service.submit(make_requests(data, 1)[0], deadline=deadline)
        assert outcome.status == "deadline"
        assert not outcome.ok

    def test_cancelled_context(self, served_tree):
        data, tree = served_tree
        context = Context()
        context.cancel()
        service = QueryService(MTreeBackend(tree))
        outcome = service.submit(make_requests(data, 1)[0], context=context)
        assert outcome.status == "cancelled"

    def test_rate_limited_submit(self, served_tree):
        data, tree = served_tree
        clock = [0.0]
        service = QueryService(
            MTreeBackend(tree),
            rate_limiter=TokenBucket(
                rate=1e-9, capacity=2.0, clock=lambda: clock[0]
            ),
        )
        requests = make_requests(data, 4)
        statuses = [service.submit(r).status for r in requests]
        assert statuses == ["ok", "ok", "rejected", "rejected"]
        assert service.stats == {"ok": 2, "rejected": 2}

    def test_backend_fault_is_an_error_outcome(self, served_tree):
        data, tree = served_tree

        class FaultingBackend:
            name = "faulty"

            def execute(self, request, deadline=None):
                raise IOFaultError("disk on fire")

        service = QueryService(FaultingBackend())
        outcome = service.submit(make_requests(data, 1)[0])
        assert outcome.status == "error"
        assert "disk on fire" in outcome.error

    def test_breaker_opens_after_repeated_faults(self, served_tree):
        data, tree = served_tree

        class FaultingBackend:
            name = "faulty"

            def execute(self, request, deadline=None):
                raise IOFaultError("persistent")

        clock = [0.0]
        service = QueryService(
            FaultingBackend(),
            breaker=CircuitBreaker(
                "faulty",
                failure_threshold=3,
                recovery_timeout_s=100.0,
                clock=lambda: clock[0],
            ),
        )
        requests = make_requests(data, 6)
        statuses = [service.submit(r).status for r in requests]
        assert statuses[:3] == ["error"] * 3
        assert statuses[3:] == ["circuit_open"] * 3

    def test_pager_faults_reach_the_breaker(self, served_tree):
        """The full stack: tree + faulting pager behind the service."""
        data, tree = served_tree
        pager = PageStore(4096)
        for node in tree.iter_nodes():
            pager.allocate(node)
        faulty = FaultyPageStore(
            pager, FaultPolicy(read_fail_rate=1.0, seed=3)
        )
        service = QueryService(
            MTreeBackend(tree, pager=faulty),
            breaker=CircuitBreaker("pager", failure_threshold=2),
        )
        statuses = [
            service.submit(r).status for r in make_requests(data, 4)
        ]
        assert statuses[:2] == ["error", "error"]
        assert statuses[2:] == ["circuit_open", "circuit_open"]

    def test_default_deadline_applies(self, served_tree):
        data, tree = served_tree
        service = QueryService(
            MTreeBackend(tree), default_deadline_s=60.0
        )
        assert service.submit(make_requests(data, 1)[0]).ok

    def test_default_deadline_leaves_shared_context_untouched(
        self, served_tree
    ):
        # A context shared across requests as a cancellation token must
        # not inherit the first request's default deadline.
        data, tree = served_tree
        service = QueryService(MTreeBackend(tree), default_deadline_s=0.05)
        context = Context()
        request = make_requests(data, 1)[0]
        assert service.submit(request, context=context).ok
        time.sleep(0.1)
        assert service.submit(request, context=context).ok
        assert context.deadline is None
        # The per-call budget still shares the caller's cancellation.
        context.cancel()
        outcome = service.submit(request, context=context)
        assert outcome.status == "cancelled"


class TestRun:
    def test_batch_matches_single_threaded(self, served_tree):
        data, tree = served_tree
        requests = make_requests(data, 50)
        service = QueryService(
            MTreeBackend(tree),
            admission=AdmissionController(max_concurrent=4, max_queue=64),
        )
        report = service.run(requests, workers=4)
        assert isinstance(report, ServiceReport)
        assert report.total == 50
        assert report.count("ok") == 50
        reference = QueryService(MTreeBackend(tree)).run(requests, workers=1)
        for concurrent, single in zip(report.outcomes, reference.outcomes):
            assert concurrent.request.request_id == single.request.request_id
            assert sorted(o for o, _v, _d in concurrent.items) == sorted(
                o for o, _v, _d in single.items
            )

    def test_overload_sheds_and_keeps_p99_bounded(self, served_tree):
        data, tree = served_tree

        class SlowBackend(MTreeBackend):
            # Hold each admitted query, so 12 workers always outnumber 2
            # slots plus 1 queue place, however fast the tree answers.
            def execute(self, request, deadline=None):
                time.sleep(0.002)
                return super().execute(request, deadline)

        requests = make_requests(data, 120)
        service = QueryService(
            SlowBackend(tree),
            admission=AdmissionController(max_concurrent=2, max_queue=1),
        )
        report = service.run(requests, workers=12, deadline_ms=10_000)
        assert report.count("ok") + report.count("rejected") == 120
        assert report.count("rejected") > 0
        # Shed requests exit fast — well under the 5 ms acceptance bar.
        assert report.latency_percentile(99, status="rejected") < 0.005

    def test_worker_validation(self, served_tree):
        data, tree = served_tree
        service = QueryService(MTreeBackend(tree))
        with pytest.raises(InvalidParameterError):
            service.run(make_requests(data, 1), workers=0)

    def test_metrics_mirroring(self, served_tree):
        data, tree = served_tree
        registry = observability.install()
        try:
            service = QueryService(MTreeBackend(tree))
            service.run(make_requests(data, 10), workers=2)
            snap = registry.snapshot()
            assert snap.get("service.requests", status="ok") == 10
            assert snap.get("service.admitted") == 10
            hist = snap.get("service.latency_seconds", None, status="ok")
            assert hist is not None and hist["count"] == 10
        finally:
            observability.uninstall()


class TestOtherBackends:
    def test_vptree_backend(self, small_uniform):
        from repro.vptree import VPTree

        tree = VPTree.build(
            list(small_uniform.points), small_uniform.metric, seed=2
        )
        service = QueryService(VPTreeBackend(tree))
        outcome = service.submit(
            QueryRequest("range", small_uniform.points[0], radius=0.3)
        )
        assert outcome.ok
        assert outcome.dists > 0

    def test_optimizer_backend(self, served_tree):
        data, tree = served_tree
        from repro.core import (
            NodeBasedCostModel,
            estimate_distance_histogram,
        )
        from repro.mtree import collect_node_stats
        from repro.optimizer import (
            LinearScanPlan,
            MTreeRangePlan,
            SimilarityQueryOptimizer,
        )
        from repro.workloads import LinearScanBaseline

        hist = estimate_distance_histogram(
            data.points, data.metric, data.d_plus, n_bins=40
        )
        model = NodeBasedCostModel(
            hist, collect_node_stats(tree, data.d_plus), len(data.points)
        )
        optimizer = SimilarityQueryOptimizer(
            [
                MTreeRangePlan(tree, model),
                LinearScanPlan(
                    LinearScanBaseline(list(data.points), data.metric, 16, 4096)
                ),
            ]
        )
        service = QueryService(OptimizerBackend(optimizer))
        outcome = service.submit(make_requests(data, 1)[0])
        assert outcome.ok
        assert outcome.dists > 0
