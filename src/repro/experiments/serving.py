"""Serving measurements: the drivers behind ``python -m repro
serve-bench|shard-bench|ingest-bench`` and
``benchmarks/bench_ext_service.py``.

The paper costs one query in isolation; a served index answers many at
once.  Each driver returns table rows: throughput and latency vs worker
threads, tails under 2x overload with and without shedding, a sharded
router vs shard count, and the ingest path per fsync policy.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from ..cluster import build_cluster
from ..datasets import clustered_dataset
from ..ingest import IngestService
from ..mtree import bulk_load, vector_layout
from ..service import (
    AdmissionController,
    MTreeBackend,
    QueryRequest,
    QueryService,
)
from ..workloads import sample_workload
from .common import paper_range_radius

__all__ = [
    "INGEST_BATCH",
    "run_throughput_sweep",
    "run_overload_comparison",
    "run_shard_scaling",
    "run_ingest_rate",
]

WORKER_COUNTS = (1, 2, 4, 8)
SWEEP_ROUNDS = 3
OVERLOAD_SLOTS = 2
SHARD_COUNTS = (1, 2, 4, 8)
INGEST_BATCH = 64


def _build_service_inputs(size: int, n_queries: int):
    data = clustered_dataset(size, 8, seed=71)
    tree = bulk_load(data.points, data.metric, vector_layout(8), seed=72)
    radius = paper_range_radius(8)
    queries = sample_workload(data, n_queries, seed=73)
    requests = [
        QueryRequest("range", query, radius=radius, request_id=i)
        for i, query in enumerate(queries)
    ]
    return tree, requests


def run_throughput_sweep(size: int, n_queries: int):
    """One row per worker count, from the best of ``SWEEP_ROUNDS``
    interleaved rounds.

    A host stall only ever slows a round down, so each worker count
    keeps its fastest round (the e2e benchmark's best-window rule) and
    one stall can no longer sink a row below the scaling floor.  ``ok``
    is the fewest answered in any round, so an error in a discarded
    round still shows.
    """
    tree, requests = _build_service_inputs(size, n_queries)
    best = {}
    for _round in range(SWEEP_ROUNDS):
        for workers in WORKER_COUNTS:
            service = QueryService(MTreeBackend(tree))
            report = service.run(requests, workers=workers)
            row = {
                "workers": workers,
                "ok": report.count("ok"),
                "throughput qps": round(report.throughput_qps, 1),
                "p50 ms": round(
                    1e3 * report.latency_percentile(50, status="ok"), 3
                ),
                "p99 ms": round(
                    1e3 * report.latency_percentile(99, status="ok"), 3
                ),
            }
            kept = best.get(workers)
            if kept is not None:
                row["ok"] = min(row["ok"], kept["ok"])
                if kept["throughput qps"] >= row["throughput qps"]:
                    kept["ok"] = row["ok"]
                    continue
            best[workers] = row
    return [best[workers] for workers in WORKER_COUNTS]


def run_overload_comparison(size: int, n_queries: int):
    """An unloaded baseline p99, then one row per queueing policy under
    2x overload.  The rejections land in whatever metrics registry the
    caller has installed (``service.rejected``)."""
    tree, requests = _build_service_inputs(size, n_queries)
    workers = 8 * OVERLOAD_SLOTS  # 2x overload per the acceptance recipe

    # Unloaded baseline: as many slots as workers, nobody waits.
    baseline = QueryService(
        MTreeBackend(tree),
        admission=AdmissionController(
            max_concurrent=workers, max_queue=len(requests)
        ),
    ).run(requests, workers=workers)
    unloaded_p99 = baseline.latency_percentile(99, status="ok")

    rows = []
    for policy, max_queue in (
        ("queue unbounded", len(requests)),
        ("shed (queue=1)", 1),
    ):
        service = QueryService(
            MTreeBackend(tree),
            admission=AdmissionController(
                max_concurrent=OVERLOAD_SLOTS, max_queue=max_queue
            ),
        )
        report = service.run(requests, workers=workers)
        rejected = report.count("rejected")
        rows.append(
            {
                "policy": policy,
                "ok": report.count("ok"),
                "rejected": rejected,
                "accepted p99 ms": round(
                    1e3 * report.latency_percentile(99, status="ok"), 2
                ),
                "reject p99 ms": (
                    round(
                        1e3
                        * report.latency_percentile(99, status="rejected"),
                        4,
                    )
                    if rejected
                    else float("nan")
                ),
            }
        )
    return {
        "unloaded_p99_ms": round(1e3 * unloaded_p99, 2),
        "rows": rows,
    }


def run_shard_scaling(size: int, n_queries: int):
    """One row per shard count: a healthy cluster answering alternating
    range and k-NN queries, with the share of shard visits pruned."""
    data = clustered_dataset(size, 8, seed=71)
    radius = paper_range_radius(8)
    queries = sample_workload(data, n_queries, seed=73)
    requests = []
    for i, query in enumerate(queries):
        if i % 2 == 0:
            requests.append(
                QueryRequest("range", query, radius=radius, request_id=i)
            )
        else:
            requests.append(
                QueryRequest("knn", query, k=1 + (i % 10), request_id=i)
            )
    objects = list(data.points)
    rows = []
    for n_shards in SHARD_COUNTS:
        router = build_cluster(
            objects,
            data.metric,
            n_shards=n_shards,
            d_plus=data.d_plus,
            seed=71,
            hedge_delay_s=0.05,
        )
        report = router.run(requests, workers=8)
        shard_queries = sum(o.shards_total for o in report.outcomes)
        pruned = sum(o.shards_pruned for o in report.outcomes)
        rows.append(
            {
                "shards": n_shards,
                "ok": report.count("ok"),
                "throughput qps": round(report.throughput_qps, 1),
                "p50 ms": round(
                    1e3 * report.latency_percentile(50, status="ok"), 3
                ),
                "p99 ms": round(
                    1e3 * report.latency_percentile(99, status="ok"), 3
                ),
                "pruned %": round(100.0 * pruned / shard_queries, 1),
                "min compl": round(report.min_completeness, 3),
            }
        )
    return rows


def run_ingest_rate(size: int, n_queries: int):
    """One row per fsync policy: the insert rate, the checkpoint, a cold
    recovery that replays the uncheckpointed WAL suffix, and the mean
    time of ``n_queries`` range queries on the recovered view."""
    data = clustered_dataset(size, 8, seed=79)
    layout = vector_layout(8)
    points = data.points
    radius = paper_range_radius(8)
    queries = sample_workload(data, n_queries, seed=80)
    rows = []
    for policy in ("always", "batch", "never"):
        with tempfile.TemporaryDirectory() as tmp:
            service = IngestService(
                Path(tmp), data.metric, layout, fsync=policy
            )
            service.recover()
            started = time.perf_counter()
            for lo in range(0, size, INGEST_BATCH):
                service.append(points[lo : lo + INGEST_BATCH])
                service.apply()
            elapsed = time.perf_counter() - started
            ckpt_started = time.perf_counter()
            service.checkpoint()
            ckpt_s = time.perf_counter() - ckpt_started
            service.append(points[: min(size, 4 * INGEST_BATCH)])
            service.close()
            cold = IngestService(Path(tmp), data.metric, layout)
            rec_started = time.perf_counter()
            recovery = cold.recover()
            rec_s = time.perf_counter() - rec_started
            tree = cold.view().tree
            query_started = time.perf_counter()
            for query in queries:
                tree.range_query(query, radius)
            query_s = (time.perf_counter() - query_started) / n_queries
            rows.append(
                {
                    "fsync": policy,
                    "insert obj/s": round(size / elapsed, 1),
                    "epochs": cold.current_epoch(),
                    "checkpoint ms": round(1e3 * ckpt_s, 1),
                    "replayed": recovery.replayed,
                    "recover ms": round(1e3 * rec_s, 1),
                    "range ms": round(1e3 * query_s, 3),
                }
            )
            cold.close()
    return rows

