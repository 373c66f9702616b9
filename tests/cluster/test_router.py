"""Scatter-gather router: exactness, pruning, quarantine, partial answers."""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.cluster import Router, Shard, ShardStats, build_cluster
from repro.context import Deadline
from repro.datasets import clustered_dataset
from repro.exceptions import (
    DeadlineExceededError,
    InvalidParameterError,
    OperationCancelledError,
)
from repro.reliability import ShardFaultInjector
from repro.service import QueryRequest

N_OBJECTS = 200
N_SHARDS = 4


@pytest.fixture(scope="module")
def data():
    return clustered_dataset(N_OBJECTS, 3, seed=41)


@pytest.fixture()
def router(data):
    return build_cluster(
        list(data.points),
        data.metric,
        n_shards=N_SHARDS,
        d_plus=data.d_plus,
        seed=41,
        hedge_delay_s=0.05,
        shard_timeout_s=1.0,
    )


def range_truth(data, query, radius):
    dists = np.asarray(data.metric.one_to_many(query, list(data.points)))
    return {int(i) for i in np.flatnonzero(dists <= radius)}


def knn_truth(data, query, k):
    dists = np.asarray(data.metric.one_to_many(query, list(data.points)))
    order = np.argsort(dists, kind="stable")[:k]
    return [(int(i), float(dists[i])) for i in order]


def queries(data, n, seed=5):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=3) for _ in range(n)]


def test_healthy_range_matches_ground_truth(router, data):
    for i, query in enumerate(queries(data, 15)):
        radius = 0.1 * (1 + i % 4) * data.d_plus
        outcome = router.execute(
            QueryRequest("range", query, radius=radius, request_id=i)
        )
        assert outcome.ok
        assert outcome.completeness == 1.0
        assert not outcome.degraded
        assert {oid for oid, _obj, _d in outcome.items} == range_truth(
            data, query, radius
        )
        # Router accounting: one pivot distance per shard, every shard
        # accounted for exactly once.
        assert outcome.router_dists == N_SHARDS
        assert outcome.shards_total == N_SHARDS
        assert (
            outcome.shards_ok
            + outcome.shards_pruned
            + outcome.shards_failed
        ) == N_SHARDS


def test_healthy_knn_matches_ground_truth(router, data):
    for i, query in enumerate(queries(data, 15, seed=6)):
        k = 1 + (i % 10)
        outcome = router.execute(QueryRequest("knn", query, k=k))
        assert outcome.ok
        assert outcome.completeness == 1.0
        truth = knn_truth(data, query, k)
        assert len(outcome.items) == k
        got = [(oid, d) for oid, _obj, d in outcome.items]
        # Distance-equal ties may resolve to different oids; the distance
        # profile must match exactly and every reported distance must be
        # the object's true distance.
        assert np.allclose(
            sorted(d for _, d in got), sorted(d for _, d in truth)
        )
        true_dists = np.asarray(
            data.metric.one_to_many(query, list(data.points))
        )
        for oid, dist in got:
            assert dist == pytest.approx(float(true_dists[oid]))
        assert len({oid for oid, _ in got}) == k


def test_pruning_fires_and_never_drops_matches(router, data):
    pruned_total = 0
    for query in queries(data, 20, seed=7):
        radius = 0.08 * data.d_plus
        outcome = router.execute(QueryRequest("range", query, radius=radius))
        assert outcome.ok
        pruned_total += outcome.shards_pruned
        assert {oid for oid, _obj, _d in outcome.items} == range_truth(
            data, query, radius
        )
        for report in outcome.shard_reports:
            if report.status == "pruned":
                # The decision carries its proof: an exact annulus count.
                assert report.exact_candidates == 0
                assert report.expected_matches is not None
                assert report.completeness == 1.0
    assert pruned_total > 0, "small-radius workload never pruned a shard"


def test_prune_toggle_answers_identically(data):
    objects = list(data.points)
    kwargs = dict(
        n_shards=N_SHARDS, d_plus=data.d_plus, seed=41,
        hedge_delay_s=math.inf,
    )
    pruning = build_cluster(objects, data.metric, prune=True, **kwargs)
    exhaustive = build_cluster(objects, data.metric, prune=False, **kwargs)
    for query in queries(data, 8, seed=8):
        request = QueryRequest("range", query, radius=0.1 * data.d_plus)
        a = pruning.execute(request)
        b = exhaustive.execute(request)
        assert a.ok and b.ok
        assert {o for o, _, _ in a.items} == {o for o, _, _ in b.items}
        assert b.shards_pruned == 0


def test_dead_shard_yields_honest_partial_answers(router, data):
    victim = router.shards[1]
    injector = ShardFaultInjector(seed=1)
    injector.kill(victim)
    reachable = {
        oid for shard in router.shards if shard is not victim
        for oid in shard.oids
    }
    weight = victim.n_objects / router.total_objects
    for i, query in enumerate(queries(data, 10, seed=9)):
        radius = 0.3 * data.d_plus
        outcome = router.execute(QueryRequest("range", query, radius=radius))
        # Never an exception, never a silent short answer: status stays
        # ok and the completeness accounting names the missing weight.
        assert outcome.ok
        victim_report = outcome.shard_reports[victim.shard_id]
        if victim_report.status == "pruned":
            assert outcome.completeness == 1.0
        else:
            assert victim_report.status in ("failed", "quarantined")
            assert outcome.completeness == pytest.approx(1.0 - weight)
            assert outcome.degraded
        got = {oid for oid, _obj, _d in outcome.items}
        assert got == range_truth(data, query, radius) & reachable
    # The router quarantined the unreachable shard.
    assert router.quarantine.reason(victim.shard_id) == "unreachable"
    # Heal: chaos lifted, recheck readmits the shard.
    injector.heal(victim)
    assert victim.shard_id in router.recheck()
    outcome = router.execute(
        QueryRequest("knn", queries(data, 1, seed=10)[0], k=5)
    )
    assert outcome.ok and outcome.completeness == 1.0


def exhaustive_range(data):
    """A range request no shard can be pruned from."""
    return QueryRequest("range", np.zeros(3), radius=data.d_plus)


def test_dead_shard_is_quarantined_by_the_first_query_reaching_it(data):
    router = build_cluster(
        list(data.points), data.metric, n_shards=N_SHARDS,
        d_plus=data.d_plus, seed=41, hedge_delay_s=math.inf,
    )
    victim = router.shards[1]
    ShardFaultInjector(seed=1).kill(victim)
    outcome = router.execute(exhaustive_range(data))
    report = outcome.shard_reports[victim.shard_id]
    assert report.status == "failed"
    assert report.attempts == [("primary", "error")]
    assert router.quarantine.reason(victim.shard_id) == "unreachable"
    assert outcome.completeness == pytest.approx(
        1.0 - victim.n_objects / router.total_objects
    )
    # The next query skips the shard without trying it.
    outcome = router.execute(exhaustive_range(data))
    report = outcome.shard_reports[victim.shard_id]
    assert report.status == "quarantined"
    assert report.attempts == []


@pytest.mark.parametrize(
    "error, status",
    [
        (DeadlineExceededError("shard budget spent"), "deadline"),
        (OperationCancelledError("shard attempt cancelled"), "cancelled"),
        (InvalidParameterError("bad request"), "error"),
    ],
    ids=["deadline", "cancelled", "invalid"],
)
def test_budget_and_request_errors_never_quarantine(data, error, status):
    router = build_cluster(
        list(data.points), data.metric, n_shards=N_SHARDS,
        d_plus=data.d_plus, seed=41, hedge_delay_s=math.inf,
    )
    victim = router.shards[1]
    calls = []

    def failing_range_query(*_args, **_kwargs):
        calls.append(1)
        raise error

    victim.tree.range_query = failing_range_query
    for _ in range(3):
        outcome = router.execute(exhaustive_range(data))
        assert outcome.ok
        report = outcome.shard_reports[victim.shard_id]
        assert report.status == "failed"
        assert report.attempts == [("primary", status)]
        assert outcome.completeness == pytest.approx(
            1.0 - victim.n_objects / router.total_objects
        )
    # Only DEFAULT_TRIP_ON faults are retried; none of these is one.
    assert len(calls) == 3
    assert not router.quarantine
    assert router.health_check() == []


def test_unexpected_shard_exception_fails_the_shard_not_the_scatter(data):
    router = build_cluster(
        list(data.points), data.metric, n_shards=N_SHARDS,
        d_plus=data.d_plus, seed=41, hedge_delay_s=math.inf,
    )
    victim = router.shards[1]

    def broken_range_query(*_args, **_kwargs):
        # metalint: ignore[exception-hierarchy] — deliberately foreign:
        # the test models a non-library bug inside a shard
        raise TypeError("a bug inside the shard")

    victim.tree.range_query = broken_range_query
    outcome = router.execute(exhaustive_range(data))
    assert outcome.ok
    report = outcome.shard_reports[victim.shard_id]
    assert report.status == "failed"
    assert report.attempts == [("primary", "error")]
    assert not router.quarantine


def test_object_weighted_completeness_pinned_at_three_quarters(data):
    """Regression: 1 of 4 equal shards quarantined => exactly 0.75.

    The min rule would report 0.0 here and make every partial answer
    look worthless; the object-weighted rule reports the reachable
    fraction of the dataset.
    """
    points = list(data.points)[:100]
    shards = []
    for i in range(4):
        members = points[25 * i : 25 * (i + 1)]
        stats = ShardStats.from_objects(
            i, members, members[0], data.metric, data.d_plus
        )
        shards.append(
            Shard(
                shard_id=i,
                objects=members,
                oids=list(range(25 * i, 25 * (i + 1))),
                metric=data.metric,
                stats=stats,
                seed=i,
            )
        )
    router = Router(shards, data.metric, hedge_delay_s=math.inf)
    router.quarantine.add(1, "manual")
    for query in queries(data, 5, seed=11):
        outcome = router.execute(
            QueryRequest("range", query, radius=0.4 * data.d_plus)
        )
        assert outcome.ok
        assert outcome.degraded
        assert outcome.completeness == 0.75  # pinned, exact
        report = outcome.shard_reports[1]
        assert report.status == "quarantined"
        assert report.quarantine_reason == "manual"


def test_min_completeness_rung_falls_back_to_scan(data):
    objects = list(data.points)
    router = build_cluster(
        objects,
        data.metric,
        n_shards=N_SHARDS,
        d_plus=data.d_plus,
        seed=41,
        min_completeness=1.0,
        hedge_delay_s=math.inf,
    )
    # Quarantine a healthy shard: scatter skips it, completeness drops
    # below the rung, and the fallback linear scan restores the answer.
    router.quarantine.add(2, "manual")
    query = queries(data, 1, seed=12)[0]
    radius = 0.3 * data.d_plus
    outcome = router.execute(QueryRequest("range", query, radius=radius))
    assert outcome.ok
    assert outcome.fallback_used
    assert outcome.degraded
    assert outcome.completeness == 1.0
    assert {oid for oid, _obj, _d in outcome.items} == range_truth(
        data, query, radius
    )
    scanned = [r for r in outcome.shard_reports if r.scanned]
    assert any(r.shard_id == 2 for r in scanned)


def test_blown_budget_returns_typed_outcome(router, data):
    query = queries(data, 1, seed=13)[0]
    outcome = router.execute(
        QueryRequest("range", query, radius=0.2 * data.d_plus),
        deadline=Deadline.after(0.0),
    )
    assert outcome.status == "deadline"
    assert not outcome.ok
    assert outcome.error


def test_router_run_batch_report(router, data):
    requests = [
        QueryRequest("range", q, radius=0.15 * data.d_plus, request_id=i)
        if i % 2 == 0
        else QueryRequest("knn", q, k=3, request_id=i)
        for i, q in enumerate(queries(data, 12, seed=14))
    ]
    report = router.run(requests, workers=4)
    assert report.total == 12
    assert report.success_rate == 1.0
    assert report.min_completeness == 1.0
    rendered = report.render()
    assert "12 routed requests" in rendered
    assert "pruned" in rendered


def test_router_parameter_validation(router, data):
    with pytest.raises(InvalidParameterError):
        Router([], data.metric)
    with pytest.raises(InvalidParameterError):
        Router(router.shards, data.metric, hedge_delay_s=-1.0)
    with pytest.raises(InvalidParameterError):
        Router(router.shards, data.metric, hedge_delay_s=math.nan)
    with pytest.raises(InvalidParameterError):
        Router(router.shards, data.metric, shard_timeout_s=0.0)
    with pytest.raises(InvalidParameterError):
        Router(router.shards, data.metric, shard_timeout_s=math.nan)
    with pytest.raises(InvalidParameterError):
        Router(router.shards, data.metric, min_completeness=1.5)
    with pytest.raises(InvalidParameterError):
        router.quarantine.add(0, "bogus-reason")


def test_scatter_starts_one_thread_per_scattered_shard(data, monkeypatch):
    router = build_cluster(
        list(data.points),
        data.metric,
        n_shards=N_SHARDS,
        d_plus=data.d_plus,
        seed=41,
        hedge_delay_s=math.inf,
    )
    started = []
    real_start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    outcome = router.execute(
        QueryRequest("knn", queries(data, 1, seed=16)[0], k=12)
    )
    assert outcome.ok
    scattered = [
        r for r in outcome.shard_reports
        if r.status not in ("pruned", "quarantined")
    ]
    assert scattered
    assert len(started) == len(scattered)


def test_folded_shard_answers_inside_the_knn_bound(data):
    objects = list(data.points[:60])
    shard = Shard(0, objects, range(100, 160), data.metric, seed=41)
    request = QueryRequest("knn", queries(data, 1, seed=18)[0], k=10)
    full = shard.submit(request)
    bound = full.items[4][2]
    expected = [(oid, d) for oid, _obj, d in full.items if d <= bound]

    def pairs(items):
        return [(oid, pytest.approx(d)) for oid, _obj, d in items]

    assert pairs(shard.submit(request, bound=bound).items) == expected
    items, n_dists = shard.scan(request, bound=bound)
    assert pairs(items) == expected and n_dists == len(objects)
    shard.fold_to_scan()
    folded = shard.submit(request, bound=bound)
    assert pairs(folded.items) == expected
    assert folded.dists == len(objects)


def test_infinite_hedge_delay_never_hedges_a_slow_shard(data):
    router = build_cluster(
        list(data.points),
        data.metric,
        n_shards=N_SHARDS,
        d_plus=data.d_plus,
        seed=41,
        hedge_delay_s=math.inf,
        shard_timeout_s=1.0,
    )
    victim = router.shards[0]
    ShardFaultInjector(seed=3).slow(victim, 0.1)
    outcome = router.execute(
        QueryRequest("knn", queries(data, 1, seed=17)[0], k=N_OBJECTS)
    )
    assert outcome.ok and outcome.completeness == 1.0
    report = outcome.shard_reports[victim.shard_id]
    assert report.status == "ok"
    assert report.hedged is False
    assert report.attempts == [("primary", "ok")]
    assert outcome.shards_hedged == 0
