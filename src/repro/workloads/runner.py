"""Measuring *actual* query costs on built indexes.

The validation experiments compare model estimates against averages over a
query workload (the paper averages over 1000 queries).  The runner executes
each query, collects the per-query node accesses / distance computations /
result sizes, and reports means with standard errors so benches can print
confidence alongside the point estimates.

Error isolation: with ``capture_errors=True`` (implied whenever a
``fault_policy`` is given) a query that raises is recorded in
``failed_queries``/``errors`` and the workload continues — one bad query
out of 1000 yields a partial :class:`WorkloadMeasurement`, not an aborted
run.  A :class:`~repro.reliability.FaultPolicy` replays each query's page
accesses through a :class:`~repro.reliability.FaultyPageStore`, optionally
under a :class:`~repro.reliability.RetryPolicy`, simulating flaky storage
under the tree (see ``docs/robustness.md``).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional

import numpy as np

from ..exceptions import (
    DeadlineExceededError,
    InvalidParameterError,
    OperationCancelledError,
)
from ..mtree import MTree
from ..observability import state as _obs
from ..reliability.faults import FaultPolicy, FaultyPageStore
from ..reliability.retry import RetryingPageStore, RetryPolicy
from ..storage.pager import PageStore
from ..vptree import VPTree

__all__ = ["WorkloadMeasurement", "run_range_workload", "run_knn_workload",
           "run_vptree_range_workload", "LinearScanBaseline"]

MAX_RECORDED_ERRORS = 20  # keep the measurement small on pathological runs


@dataclass
class WorkloadMeasurement:
    """Mean observed costs over a workload, with dispersion.

    Means cover the *successful* queries only; ``failed_queries`` counts
    the ones isolated by error capture, and ``errors`` keeps the first few
    error strings for diagnosis.
    """

    mean_nodes: float
    mean_dists: float
    mean_results: float
    std_nodes: float
    std_dists: float
    n_queries: int
    mean_nn_distance: Optional[float] = None  # k-NN workloads only
    failed_queries: int = 0
    errors: List[str] = field(default_factory=list)
    mean_query_seconds: Optional[float] = None  # wall-clock per query

    @property
    def success_rate(self) -> float:
        total = self.n_queries + self.failed_queries
        return self.n_queries / total if total else 0.0

    def stderr_nodes(self) -> float:
        return self.std_nodes / np.sqrt(self.n_queries) if self.n_queries else 0.0

    def stderr_dists(self) -> float:
        return self.std_dists / np.sqrt(self.n_queries) if self.n_queries else 0.0


def _summarise(
    nodes: List[int],
    dists: List[int],
    results: List[int],
    nn_distances: Optional[List[float]] = None,
    failures: Optional[List[str]] = None,
    seconds: Optional[List[float]] = None,
) -> WorkloadMeasurement:
    failures = failures or []
    if not nodes:
        # Every query failed: a degenerate but *reportable* measurement.
        return WorkloadMeasurement(
            mean_nodes=0.0,
            mean_dists=0.0,
            mean_results=0.0,
            std_nodes=0.0,
            std_dists=0.0,
            n_queries=0,
            failed_queries=len(failures),
            errors=failures[:MAX_RECORDED_ERRORS],
        )
    nodes_arr = np.asarray(nodes, dtype=np.float64)
    dists_arr = np.asarray(dists, dtype=np.float64)
    results_arr = np.asarray(results, dtype=np.float64)
    return WorkloadMeasurement(
        mean_nodes=float(nodes_arr.mean()),
        mean_dists=float(dists_arr.mean()),
        mean_results=float(results_arr.mean()),
        std_nodes=float(nodes_arr.std(ddof=0)),
        std_dists=float(dists_arr.std(ddof=0)),
        n_queries=len(nodes),
        mean_nn_distance=(
            float(np.mean(nn_distances)) if nn_distances else None
        ),
        failed_queries=len(failures),
        errors=failures[:MAX_RECORDED_ERRORS],
        mean_query_seconds=(
            float(np.mean(seconds)) if seconds else None
        ),
    )


def _record_query(kind: str, ok: bool, elapsed_s: float) -> None:
    """Mirror one workload query into the registry (no-op when disabled)."""
    reg = _obs.registry
    if reg is None:
        return
    if ok:
        reg.inc("workload.queries", kind=kind)
        reg.observe("workload.query_seconds", elapsed_s, kind=kind)
    else:
        reg.inc("workload.failed_queries", kind=kind)


class _PageReplayer:
    """Replay a query's node-access log through a (possibly faulty) store.

    One page per M-tree node, like the buffer-pool bench: the store raises
    :class:`~repro.exceptions.IOFaultError` (or, retries exhausted,
    :class:`~repro.exceptions.RetryExhaustedError`) when the policy decides
    a read fails — which fails the *query*, exactly as a real device error
    under the index would.
    """

    def __init__(
        self,
        tree: MTree,
        policy: FaultPolicy,
        retry: Optional[RetryPolicy] = None,
    ):
        inner = PageStore(page_size_bytes=tree.layout.node_size_bytes)
        self._page_of = {
            id(node): inner.allocate(None) for node in tree.iter_nodes()
        }
        store = FaultyPageStore(inner, policy)
        self.store = (
            RetryingPageStore(store, retry) if retry is not None else store
        )

    def replay(self, access_log: List[int]) -> None:
        for node_id in access_log:
            self.store.read(self._page_of[node_id])


def _run_mtree_workload(
    tree: MTree,
    queries: Iterable[Any],
    run_one,
    capture_errors: bool,
    fault_policy: Optional[FaultPolicy],
    retry: Optional[RetryPolicy],
    want_kth: bool,
    kind: str,
) -> WorkloadMeasurement:
    capture = capture_errors or fault_policy is not None
    replayer = (
        _PageReplayer(tree, fault_policy, retry)
        if fault_policy is not None
        else None
    )
    tracer = _obs.tracer
    nodes: List[int] = []
    dists: List[int] = []
    results: List[int] = []
    kth: List[float] = []
    failures: List[str] = []
    seconds: List[float] = []
    n_seen = 0
    for index, query in enumerate(queries):
        n_seen += 1
        log: Optional[List[int]] = [] if replayer is not None else None
        span = (
            tracer.span("workload.query", kind=kind, index=index)
            if tracer is not None
            else nullcontext()
        )
        started = time.perf_counter()
        try:
            with span as sp:
                outcome = run_one(query, log)
                if replayer is not None:
                    replayer.replay(log)
                if sp is not None:
                    sp.set(
                        nodes=outcome.stats.nodes_accessed,
                        dists=outcome.stats.dists_computed,
                        results=len(outcome),
                    )
        except (DeadlineExceededError, OperationCancelledError):
            # Cancellation is control flow, not a query failure: even
            # with capture enabled it must unwind the whole run.
            _record_query(kind, False, 0.0)
            raise
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            _record_query(kind, False, 0.0)
            if not capture:
                raise
            failures.append(
                f"query {index}: {type(exc).__name__}: {exc}"
            )
            continue
        elapsed = time.perf_counter() - started
        _record_query(kind, True, elapsed)
        seconds.append(elapsed)
        nodes.append(outcome.stats.nodes_accessed)
        dists.append(outcome.stats.dists_computed)
        results.append(len(outcome))
        if want_kth:
            kth.append(outcome.neighbors[-1].distance)
    if n_seen == 0:
        raise InvalidParameterError("workload is empty")
    return _summarise(
        nodes, dists, results, kth if want_kth else None, failures, seconds
    )


def run_range_workload(
    tree: MTree,
    queries: Iterable[Any],
    radius: float,
    use_parent_pruning: bool = False,
    capture_errors: bool = False,
    fault_policy: Optional[FaultPolicy] = None,
    retry: Optional[RetryPolicy] = None,
) -> WorkloadMeasurement:
    """Run ``range(Q, radius)`` for every query on an M-tree."""
    return _run_mtree_workload(
        tree,
        queries,
        lambda query, log: tree.range_query(
            query, radius, use_parent_pruning, access_log=log
        ),
        capture_errors,
        fault_policy,
        retry,
        want_kth=False,
        kind="range",
    )


def run_knn_workload(
    tree: MTree,
    queries: Iterable[Any],
    k: int,
    use_parent_pruning: bool = False,
    capture_errors: bool = False,
    fault_policy: Optional[FaultPolicy] = None,
    retry: Optional[RetryPolicy] = None,
) -> WorkloadMeasurement:
    """Run ``NN(Q, k)`` for every query on an M-tree.

    ``mean_nn_distance`` records the average distance of the k-th neighbor
    (compared against ``E[nn_{Q,k}]`` in Figure 2(c)).
    """
    return _run_mtree_workload(
        tree,
        queries,
        lambda query, log: tree.knn_query(
            query, k, use_parent_pruning, access_log=log
        ),
        capture_errors,
        fault_policy,
        retry,
        want_kth=True,
        kind="knn",
    )


def run_vptree_range_workload(
    tree: VPTree,
    queries: Iterable[Any],
    radius: float,
    capture_errors: bool = False,
) -> WorkloadMeasurement:
    """Run ``range(Q, radius)`` for every query on a vp-tree."""
    nodes: List[int] = []
    dists: List[int] = []
    results: List[int] = []
    failures: List[str] = []
    seconds: List[float] = []
    n_seen = 0
    for index, query in enumerate(queries):
        n_seen += 1
        started = time.perf_counter()
        try:
            outcome = tree.range_query(query, radius)
        except (DeadlineExceededError, OperationCancelledError):
            _record_query("vptree_range", False, 0.0)
            raise
        except Exception as exc:  # noqa: BLE001
            _record_query("vptree_range", False, 0.0)
            if not capture_errors:
                raise
            failures.append(f"query {index}: {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - started
        _record_query("vptree_range", True, elapsed)
        seconds.append(elapsed)
        nodes.append(outcome.stats.nodes_accessed)
        dists.append(outcome.stats.dists_computed)
        results.append(len(outcome))
    if n_seen == 0:
        raise InvalidParameterError("workload is empty")
    return _summarise(nodes, dists, results, failures=failures,
                      seconds=seconds)


def run_vptree_knn_workload(
    tree: VPTree,
    queries: Iterable[Any],
    k: int,
    capture_errors: bool = False,
) -> WorkloadMeasurement:
    """Run ``NN(Q, k)`` for every query on a vp-tree."""
    nodes: List[int] = []
    dists: List[int] = []
    results: List[int] = []
    kth: List[float] = []
    failures: List[str] = []
    seconds: List[float] = []
    n_seen = 0
    for index, query in enumerate(queries):
        n_seen += 1
        started = time.perf_counter()
        try:
            outcome = tree.knn_query(query, k)
        except (DeadlineExceededError, OperationCancelledError):
            _record_query("vptree_knn", False, 0.0)
            raise
        except Exception as exc:  # noqa: BLE001
            _record_query("vptree_knn", False, 0.0)
            if not capture_errors:
                raise
            failures.append(f"query {index}: {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - started
        _record_query("vptree_knn", True, elapsed)
        seconds.append(elapsed)
        nodes.append(outcome.stats.nodes_accessed)
        dists.append(outcome.stats.dists_computed)
        results.append(len(outcome))
        kth.append(outcome.neighbors[-1][2])
    if n_seen == 0:
        raise InvalidParameterError("workload is empty")
    return _summarise(nodes, dists, results, kth, failures,
                      seconds=seconds)


class LinearScanBaseline:
    """Sequential scan: the trivial comparator every index must beat.

    Costs are exact by construction: ``n`` distance computations and
    ``ceil(n * object_bytes / node_size)`` page reads per query.
    """

    def __init__(self, objects, metric, object_bytes: int, node_size_bytes: int):
        if node_size_bytes < object_bytes:
            raise InvalidParameterError(
                "node_size_bytes must hold at least one object"
            )
        self.objects = list(objects)
        self.metric = metric
        per_page = max(1, node_size_bytes // object_bytes)
        self.pages = int(np.ceil(len(self.objects) / per_page))

    def range_query(self, query: Any, radius: float):
        """Return (matches, nodes_accessed, dists_computed)."""
        if not (radius >= 0):
            raise InvalidParameterError(f"radius must be >= 0, got {radius}")
        distances = np.asarray(self.metric.one_to_many(query, self.objects))
        matches = [
            (i, self.objects[i], float(d))
            for i, d in enumerate(distances)
            if d <= radius
        ]
        return matches, self.pages, len(self.objects)

    def knn_query(self, query: Any, k: int):
        """Return (neighbors sorted by distance, nodes, dists)."""
        if not (1 <= k <= len(self.objects)):
            raise InvalidParameterError(
                f"k must lie in [1, {len(self.objects)}], got {k}"
            )
        distances = np.asarray(self.metric.one_to_many(query, self.objects))
        order = np.argsort(distances, kind="stable")[:k]
        neighbors = [
            (int(i), self.objects[int(i)], float(distances[int(i)]))
            for i in order
        ]
        return neighbors, self.pages, len(self.objects)
