"""Hedged reads under concurrency: a slow shard never sets the pace.

One shard is made deterministically slow (primaries stall 300 ms; hedged
duplicates are exempt, the ``slow_hedged=False`` default), the router
hedges after 20 ms, and 8 worker threads hammer the cluster.  Every
answer must come back complete, won by the hedge, with the stalled
primary cancelled through its :class:`~repro.context.Context` — and the
merged k-NN must never contain a duplicate object from the racing pair.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.datasets import clustered_dataset
from repro.reliability import ShardFaultInjector
from repro.service import QueryRequest

N_OBJECTS = 240
N_SHARDS = 4
N_QUERIES = 24
WORKERS = 8
SLOW_S = 0.3
HEDGE_DELAY_S = 0.02


@pytest.fixture(scope="module")
def data():
    return clustered_dataset(N_OBJECTS, 3, seed=51)


def test_hedge_beats_slow_shard_under_hammer(data):
    router = build_cluster(
        list(data.points),
        data.metric,
        n_shards=N_SHARDS,
        d_plus=data.d_plus,
        seed=51,
        hedge_delay_s=HEDGE_DELAY_S,
        shard_timeout_s=2.0,
    )
    victim = router.shards[2]
    ShardFaultInjector(seed=2).slow(victim, SLOW_S)

    # Large k keeps every shard a scatter target (little pruning), so the
    # slow shard is exercised by essentially every request.
    requests = [
        QueryRequest("knn", query, k=12, request_id=i)
        for i, query in enumerate(
            np.random.default_rng(15).normal(size=(N_QUERIES, 3))
        )
    ]
    report = router.run(requests, workers=WORKERS)

    assert report.success_rate == 1.0
    assert report.min_completeness == 1.0
    true_dist_cache = {}
    hedge_wins = 0
    primary_cancellations = 0
    for outcome in report.outcomes:
        assert outcome.ok and not outcome.degraded
        # Merged k-NN: k distinct objects, no hedge-pair duplicates.
        oids = [oid for oid, _obj, _d in outcome.items]
        assert len(oids) == len(set(oids)) == 12
        victim_report = outcome.shard_reports[victim.shard_id]
        if victim_report.status != "ok":
            assert victim_report.status == "pruned"
            continue
        # The slow primary lost the race to its hedge...
        assert victim_report.hedged
        assert victim_report.hedge_won
        hedge_wins += 1
        # ...well before the injected stall could have finished.
        assert victim_report.latency_s < SLOW_S
        # ...and was cancelled through its context, not left running.
        labels = dict(victim_report.attempts)
        assert labels.get("hedge") == "ok"
        if labels.get("primary") == "cancelled":
            primary_cancellations += 1
        # The hedged answer is still the exact answer for this shard.
        rid = outcome.request.request_id
        if rid not in true_dist_cache:
            true_dist_cache[rid] = np.asarray(
                data.metric.one_to_many(
                    outcome.request.query, list(data.points)
                )
            )
        for oid, _obj, dist in victim_report.items:
            assert dist == pytest.approx(float(true_dist_cache[rid][oid]))
    assert hedge_wins >= N_QUERIES // 2
    assert primary_cancellations >= hedge_wins // 2
    assert sum(o.shards_hedged for o in report.outcomes) >= hedge_wins
