"""Extension: concurrent serving — throughput scaling and load shedding.

The paper costs a single query in isolation; a served index answers many
at once.  The drivers live in :mod:`repro.experiments.serving` (they also
back ``python -m repro serve-bench|shard-bench|ingest-bench``); this
bench runs them and asserts:

1. **Throughput vs workers** — traversal bookkeeping is GIL-bound (the
   batched distance kernels release the GIL, but single-core CI runners
   can't scale anyway), so we assert throughput does not *collapse*
   with more workers rather than demanding linear speedup; the
   kernel-level scaling story lives in ``bench_ext_kernels.py``.
2. **Tail latency under 2x overload, with and without shedding** — a
   bounded queue keeps the accepted p99 within the acceptance bar of 3x
   the unloaded p99, and the metrics registry sees every rejection.
3. **Sharded scatter-gather scaling** — a healthy cluster answers every
   query in full and prunes shards.  Each run appends its rows to
   ``benchmarks/BENCH_cluster.json`` so the throughput/pruning curve
   accumulates a trajectory across revisions.
4. **Sustained insert rate** — recovery replays exactly the
   uncheckpointed suffix under every fsync policy.  Rows accumulate in
   ``benchmarks/BENCH_ingest.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import observability
from repro.experiments import format_table
from repro.experiments.serving import (
    INGEST_BATCH,
    run_ingest_rate,
    run_overload_comparison,
    run_shard_scaling,
    run_throughput_sweep,
)

CLUSTER_TRAJECTORY = Path(__file__).resolve().parent / "BENCH_cluster.json"
INGEST_TRAJECTORY = Path(__file__).resolve().parent / "BENCH_ingest.json"
TRAJECTORY_KEEP = 50  # most recent records retained per file


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
    registry = observability.install()
    try:
        result = benchmark.pedantic(
            run_overload_comparison,
            args=(scale.vector_size, n_queries),
            rounds=1,
            iterations=1,
        )
        rejected_metric = registry.snapshot().total("service.rejected")
    finally:
        observability.uninstall()
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
    assert rejected_metric >= shed["rejected"]
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
        args=(size, scale.n_queries),
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
