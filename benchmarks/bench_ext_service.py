"""Extension: concurrent serving — throughput scaling and load shedding.

The paper costs a single query in isolation; a served index answers many
at once.  This bench measures two things about :class:`repro.service.
QueryService` wrapped around one shared M-tree:

1. **Throughput vs workers** — batch QPS as the worker-thread count
   grows, best of three interleaved rounds per count.  Traversal bookkeeping is GIL-bound (the batched distance
   kernels release the GIL, but single-core CI runners can't scale
   anyway), so we assert throughput does not *collapse* with more
   workers rather than demanding linear speedup; the kernel-level
   scaling story lives in ``bench_ext_kernels.py``.
2. **Tail latency under 2x overload, with and without shedding** — 16
   workers hammer a 2-slot service.  Unbounded queueing lets every
   request pile up behind the slots (accepted p99 balloons); a bounded
   queue sheds the excess in microseconds and keeps the accepted p99
   within the acceptance bar of 3x the unloaded p99.
3. **Sharded scatter-gather scaling** — the same workload routed by
   :class:`repro.cluster.Router` across N shards.  Each run appends its
   rows to ``benchmarks/BENCH_cluster.json`` so the throughput/pruning
   curve accumulates a trajectory across revisions.
4. **Sustained insert rate** — objects streamed through
   :class:`repro.ingest.IngestService` (WAL append + clone-then-publish
   apply, where the clone copies only the paths a batch writes) per
   fsync policy, plus checkpoint and WAL-replay recovery
   timing.  Rows accumulate in ``benchmarks/BENCH_ingest.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import observability
from repro.cluster import build_cluster
from repro.datasets import clustered_dataset
from repro.experiments import format_table, paper_range_radius
from repro.mtree import bulk_load, vector_layout
from repro.service import (
    AdmissionController,
    MTreeBackend,
    QueryRequest,
    QueryService,
)
from repro.workloads import sample_workload

WORKER_COUNTS = (1, 2, 4, 8)
SWEEP_ROUNDS = 3
OVERLOAD_SLOTS = 2
SHARD_COUNTS = (1, 2, 4, 8)
CLUSTER_TRAJECTORY = Path(__file__).resolve().parent / "BENCH_cluster.json"
INGEST_TRAJECTORY = Path(__file__).resolve().parent / "BENCH_ingest.json"
TRAJECTORY_KEEP = 50  # most recent records retained per file
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

    registry = observability.install()
    try:
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
                            * report.latency_percentile(
                                99, status="rejected"
                            ),
                            4,
                        )
                        if rejected
                        else float("nan")
                    ),
                }
            )
        snapshot = registry.snapshot()
    finally:
        observability.uninstall()
    return {
        "unloaded_p99_ms": round(1e3 * unloaded_p99, 2),
        "rows": rows,
        "rejected_metric": snapshot.total("service.rejected"),
    }


def run_shard_scaling(size: int, n_queries: int):
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


def run_ingest_rate(size: int):
    import tempfile

    from repro.ingest import IngestService

    data = clustered_dataset(size, 8, seed=79)
    layout = vector_layout(8)
    points = data.points
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
            rows.append(
                {
                    "fsync": policy,
                    "insert obj/s": round(size / elapsed, 1),
                    "epochs": cold.current_epoch(),
                    "checkpoint ms": round(1e3 * ckpt_s, 1),
                    "replayed": recovery.replayed,
                    "recover ms": round(1e3 * rec_s, 1),
                }
            )
            cold.close()
    return rows


def _append_trajectory(path: Path, scale_name: str, rows) -> None:
    """Append this run's rows to a ``BENCH_*.json`` trajectory.

    The file is a JSON list of records, newest last, capped at
    ``TRAJECTORY_KEEP`` so the perf curve across revisions stays
    readable without growing unboundedly.  Quick-scale runs are not
    recorded: their sizes are not comparable with the other rows, and
    the smoke test runs them on every tier-1 pass.
    """
    if scale_name == "quick":
        return
    records = []
    if path.exists():
        try:
            records = json.loads(path.read_text())
        except (ValueError, OSError):
            records = []
    if not isinstance(records, list):
        records = []
    records.append(
        {
            "timestamp": round(time.time(), 3),
            "scale": scale_name,
            "rows": rows,
        }
    )
    records = records[-TRAJECTORY_KEEP:]
    path.write_text(json.dumps(records, indent=2) + "\n")


def append_cluster_trajectory(scale_name: str, rows) -> None:
    _append_trajectory(CLUSTER_TRAJECTORY, scale_name, rows)


def append_ingest_trajectory(scale_name: str, rows) -> None:
    _append_trajectory(INGEST_TRAJECTORY, scale_name, rows)


def test_ext_service_throughput(benchmark, scale, show):
    n_queries = max(200, 2 * scale.n_queries)
    rows = benchmark.pedantic(
        run_throughput_sweep,
        args=(scale.vector_size, n_queries),
        rounds=1,
        iterations=1,
    )
    show(
        format_table(
            rows,
            title=(
                "Extension - service throughput vs worker threads "
                f"({n_queries} range queries, shared M-tree)"
            ),
        )
    )
    for row in rows:
        assert row["ok"] == n_queries
    # More workers must not collapse throughput (single-core runners and
    # GIL-bound bookkeeping bound the upside; a deadlock or a
    # serialisation bug would tank it).
    base_qps = rows[0]["throughput qps"]
    for row in rows[1:]:
        assert row["throughput qps"] > 0.25 * base_qps


def test_ext_service_overload_shedding(benchmark, scale, show):
    n_queries = max(200, 2 * scale.n_queries)
    result = benchmark.pedantic(
        run_overload_comparison,
        args=(scale.vector_size, n_queries),
        rounds=1,
        iterations=1,
    )
    show(
        format_table(
            result["rows"],
            title=(
                "Extension - 2x overload, accepted/rejected tails "
                f"(unloaded p99 = {result['unloaded_p99_ms']} ms)"
            ),
        )
    )
    unbounded, shed = result["rows"]
    assert unbounded["policy"] == "queue unbounded"
    # Shedding actually happened, and the registry saw every rejection.
    assert shed["rejected"] > 0
    assert result["rejected_metric"] >= shed["rejected"]
    assert unbounded["ok"] == n_queries
    assert shed["ok"] + shed["rejected"] == n_queries
    # Acceptance bars: accepted p99 within 3x unloaded; rejections < 5 ms.
    assert shed["accepted p99 ms"] <= 3 * result["unloaded_p99_ms"]
    assert shed["reject p99 ms"] < 5.0
    # Shedding beats unbounded queueing on the accepted tail.
    assert shed["accepted p99 ms"] <= unbounded["accepted p99 ms"]


def test_ext_cluster_scaling(benchmark, scale, show):
    n_queries = max(100, scale.n_queries)
    rows = benchmark.pedantic(
        run_shard_scaling,
        args=(scale.vector_size, n_queries),
        rounds=1,
        iterations=1,
    )
    show(
        format_table(
            rows,
            title=(
                "Extension - sharded scatter-gather scaling "
                f"({n_queries} mixed range/k-NN queries, healthy cluster)"
            ),
        )
    )
    for row in rows:
        # A healthy cluster never degrades an answer.
        assert row["ok"] == n_queries
        assert row["min compl"] == 1.0
    # Cost-model pruning must actually fire once there are shards to
    # skip: small-radius range queries cannot touch every partition.
    assert rows[0]["pruned %"] == 0.0  # single shard: nothing to prune
    assert any(row["pruned %"] > 0.0 for row in rows[1:])
    append_cluster_trajectory(scale.name, rows)
    assert CLUSTER_TRAJECTORY.exists()


def test_ext_ingest_rate(benchmark, scale, show):
    size = max(600, scale.vector_size // 4)
    rows = benchmark.pedantic(
        run_ingest_rate,
        args=(size,),
        rounds=1,
        iterations=1,
    )
    show(
        format_table(
            rows,
            title=(
                "Extension - sustained ingest rate vs fsync policy "
                f"({size} objects, batches of {INGEST_BATCH})"
            ),
        )
    )
    for row in rows:
        assert row["insert obj/s"] > 0
        # Recovery replayed exactly the acked-but-uncheckpointed suffix.
        assert row["replayed"] == min(size, 4 * INGEST_BATCH)
    always, batched, never = rows
    # Relaxing durability must not make ingest slower by an order of
    # magnitude the other way: fsync=always pays the most per batch.
    assert never["insert obj/s"] >= 0.2 * always["insert obj/s"]
    append_ingest_trajectory(scale.name, rows)
    assert INGEST_TRAJECTORY.exists()
