"""Tier-1 mirror of the chaos drill: a shard dies mid-workload.

The full-size drill lives in ``scripts/run_shard_chaos.py`` (1k queries,
kill + slow); this scaled-down copy pins the same acceptance bars in the
regular test suite: after 1 of 4 shards is killed mid-workload, every
query still returns a typed ``ok`` answer, completeness never drops
below the surviving object weight, the answer is provably complete over
the reachable objects (no silent short answers), and every pruning
decision carries its exact distance-count proof.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.datasets import clustered_dataset
from repro.reliability import ShardFaultInjector
from repro.service import QueryRequest

N_OBJECTS = 400
N_SHARDS = 4
N_QUERIES = 60
KILL_AT = 15


@pytest.fixture(scope="module")
def data():
    return clustered_dataset(N_OBJECTS, 3, seed=61)


def test_mid_workload_shard_kill_keeps_answers_honest(data):
    points = list(data.points)
    router = build_cluster(
        points,
        data.metric,
        n_shards=N_SHARDS,
        d_plus=data.d_plus,
        seed=61,
        hedge_delay_s=0.02,
        shard_timeout_s=0.5,
        min_completeness=0.5,
    )
    victim = router.shards[1]
    injector = ShardFaultInjector(seed=3)
    victim_weight = victim.n_objects / router.total_objects
    floor = 1.0 - victim_weight
    assert floor >= 0.5  # the workload's completeness bar is reachable

    rng = np.random.default_rng(16)
    all_dists = None
    for i in range(N_QUERIES):
        if i == KILL_AT:
            injector.kill(victim)
        query = rng.normal(size=3)
        if i % 2 == 0:
            radius = float(rng.uniform(0.1, 0.35)) * data.d_plus
            request = QueryRequest(
                "range", query, radius=radius, request_id=i
            )
        else:
            request = QueryRequest(
                "knn", query, k=int(rng.integers(1, 12)), request_id=i
            )
        outcome = router.execute(request)

        # Bar 1: the router never throws and never goes non-ok — a dead
        # shard degrades the answer, it does not fail the query.
        assert outcome.ok, f"query {i}: {outcome.status} ({outcome.error})"

        # Bar 2: completeness floor.  Before the kill everything is
        # reachable; after it, at worst the victim's weight is missing
        # (exactly 1.0 when the cost model pruned the victim anyway).
        if i < KILL_AT:
            assert outcome.completeness == 1.0
        else:
            assert outcome.completeness >= floor - 1e-12
        assert outcome.completeness >= 0.5  # the ISSUE acceptance bar

        # Bar 3: zero silent short answers — verify against single-node
        # ground truth restricted to the reachable objects.
        reachable = {
            oid
            for report in outcome.shard_reports
            if report.status in ("ok", "pruned")
            for oid in router.shards[report.shard_id].oids
        }
        all_dists = np.asarray(data.metric.one_to_many(query, points))
        got = {oid for oid, _obj, _d in outcome.items}
        if request.kind == "range":
            truth = {
                int(j) for j in np.flatnonzero(all_dists <= request.radius)
            }
            assert got == truth & reachable
        else:
            assert len(got) == min(request.k, len(reachable))
            worst = max(
                (d for _oid, _obj, d in outcome.items), default=0.0
            )
            # Every reachable object strictly closer than the worst
            # returned neighbour must be in the answer.
            for j in np.flatnonzero(all_dists < worst - 1e-12):
                if int(j) in reachable:
                    assert int(j) in got

        # Bar 4: pruning decisions carry their exact-count proof at the
        # radius they name; a k-NN prune's radius reaches the true k-th
        # distance over the reachable objects, for both rules.
        def kth_over(statuses):
            pool = np.sort([
                all_dists[oid]
                for report in outcome.shard_reports
                if report.status in statuses
                for oid in router.shards[report.shard_id].oids
            ])
            return pool[min(request.k, pool.size) - 1]

        for report in outcome.shard_reports:
            if report.status == "pruned":
                assert report.exact_candidates == 0
                stats = router.shards[report.shard_id].stats
                assert (
                    stats.candidate_count(
                        report.pivot_dist, report.prune_radius
                    )
                    == 0
                )
                if request.kind == "range":
                    assert report.prune_radius == request.radius
                else:
                    assert report.prune_radius >= kth_over(("ok", "pruned"))

    # The dead shard was discovered and quarantined as unreachable.
    assert router.quarantine.reason(victim.shard_id) == "unreachable"
    # Post-kill queries skip the quarantined shard instantly rather than
    # re-timing-out: the victim's last reports say quarantined.
    final = router.execute(
        QueryRequest("range", rng.normal(size=3), radius=0.2 * data.d_plus)
    )
    victim_report = final.shard_reports[victim.shard_id]
    assert victim_report.status in ("quarantined", "pruned")
    if victim_report.status == "quarantined":
        assert victim_report.quarantine_reason == "unreachable"
