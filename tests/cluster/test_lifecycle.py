"""Self-healing ladder: scrub promotion, repair, rebalance, fold, fencing.

Each rung of the escalation ladder is exercised end-to-end: a structural
fault injected into one shard's vp-tree must be *found* by the scrubber,
*promoted* into the router quarantine, *repaired* (with an epoch bump
committed through the generation store), and — when repair is forbidden —
escalated to a rebalance or folded into the honest linear-scan rung.
No rung ever silently shortens an answer.
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro import observability
from repro.cluster import (
    ClusterLifecycle,
    Rebalancer,
    build_cluster,
    load_cluster,
    save_cluster,
)
from repro.datasets import clustered_dataset
from repro.exceptions import StaleEpochError
from repro.reliability import ShardFaultInjector
from repro.service import QueryRequest

N_OBJECTS = 90
N_SHARDS = 3
BAD_SHARD = 1


@pytest.fixture(scope="module")
def data():
    return clustered_dataset(N_OBJECTS, 3, seed=13)


@pytest.fixture()
def router(data):
    return build_cluster(
        list(data.points),
        data.metric,
        n_shards=N_SHARDS,
        d_plus=data.d_plus,
        seed=13,
    )


@pytest.fixture(autouse=True)
def registry():
    reg = observability.install()
    yield reg
    observability.uninstall()


def corrupt_shard(router, shard_id=BAD_SHARD):
    """Shrink a routing cutoff: the classic silent-pruning structural
    fault — an ancestor's pruning test now lies about its subtree."""
    root = router.membership.shards[shard_id].tree.root
    root.cutoffs[0] *= 0.25


def range_truth(data, query, radius):
    dists = np.asarray(data.metric.one_to_many(query, list(data.points)))
    return {int(i) for i in np.flatnonzero(dists <= radius)}


def assert_exact_answers(router, data, seed=3, n=6):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        query = rng.normal(size=3)
        radius = 0.25 * data.d_plus
        outcome = router.execute(QueryRequest("range", query, radius=radius))
        assert outcome.ok
        assert outcome.completeness == 1.0
        got = {oid for oid, _obj, _d in outcome.items}
        assert got == range_truth(data, query, radius)


class TestScrubPromotion:
    def test_fault_promotes_to_router_quarantine(self, router, data):
        lifecycle = ClusterLifecycle(router, data.d_plus)
        corrupt_shard(router)
        lifecycle.scrub()
        assert router.quarantine.contains(BAD_SHARD)
        assert lifecycle.state(BAD_SHARD) == "quarantined"
        events = [e for e in lifecycle.events if e.to_state == "quarantined"]
        assert events and events[0].trigger == "scrub"
        assert events[0].shard_id == BAD_SHARD

    def test_quarantined_shard_answers_are_honest_not_wrong(
        self, router, data
    ):
        lifecycle = ClusterLifecycle(router, data.d_plus)
        corrupt_shard(router)
        lifecycle.scrub()
        # Between promotion and repair the router skips the quarantined
        # shard: the answer may be *short* but the accounting says so,
        # and nothing outside the ground truth ever appears.
        bad_oids = set(router.membership.shards[BAD_SHARD].oids)
        rng = np.random.default_rng(3)
        for _ in range(6):
            query = rng.normal(size=3)
            radius = 0.25 * data.d_plus
            outcome = router.execute(
                QueryRequest("range", query, radius=radius)
            )
            assert outcome.ok
            assert outcome.completeness < 1.0
            got = {oid for oid, _obj, _d in outcome.items}
            truth = range_truth(data, query, radius)
            assert got == truth - bad_oids

    def test_min_completeness_rung_scans_the_quarantined_shard(
        self, data
    ):
        router = build_cluster(
            list(data.points),
            data.metric,
            n_shards=N_SHARDS,
            d_plus=data.d_plus,
            seed=13,
            min_completeness=1.0,
        )
        lifecycle = ClusterLifecycle(router, data.d_plus)
        corrupt_shard(router)
        lifecycle.scrub()
        assert router.quarantine.contains(BAD_SHARD)
        # The completeness floor forces a linear-scan fallback over the
        # quarantined shard: slower, but exact again.
        assert_exact_answers(router, data)

    def test_healthy_cluster_scrubs_clean(self, router, data):
        lifecycle = ClusterLifecycle(router, data.d_plus)
        report = lifecycle.tick()
        assert report.promotions == 0
        assert report.repairs_ok == 0
        assert all(s == "healthy" for s in lifecycle.states().values())


class TestRepairRung:
    def test_full_ladder_heals_and_bumps_epoch(self, router, data, tmp_path):
        save_cluster(router, tmp_path, data.d_plus)
        rebalancer = Rebalancer(tmp_path, data.metric)
        lifecycle = ClusterLifecycle(router, data.d_plus, rebalancer)
        old_epoch = router.membership.epoch
        corrupt_shard(router)

        report = lifecycle.tick()

        assert report.promotions == 1
        assert report.repairs_ok == 1
        assert report.repairs_failed == 0
        assert not router.quarantine.contains(BAD_SHARD)
        assert lifecycle.state(BAD_SHARD) == "healthy"
        assert router.membership.epoch == old_epoch + 1
        assert_exact_answers(router, data)

        transitions = [e.to_state for e in report.events]
        assert transitions == ["quarantined", "repairing", "healthy"]

        # The repair was committed: a cold restart from the store sees
        # the repaired tree at the new epoch.
        reopened = load_cluster(tmp_path, data.metric)
        assert reopened.membership.epoch == old_epoch + 1
        assert_exact_answers(reopened, data)

    def test_repair_without_store_still_heals_in_memory(self, router, data):
        lifecycle = ClusterLifecycle(router, data.d_plus)
        corrupt_shard(router)
        report = lifecycle.tick()
        assert report.repairs_ok == 1
        assert lifecycle.state(BAD_SHARD) == "healthy"
        assert_exact_answers(router, data)

    def test_metrics_trace_the_ladder(self, router, data, registry):
        lifecycle = ClusterLifecycle(router, data.d_plus)
        corrupt_shard(router)
        lifecycle.tick()
        assert (
            registry.counter_value(
                "cluster.lifecycle.scrub_promotions", new=True
            )
            == 1
        )
        assert registry.counter_value("cluster.lifecycle.repairs", ok=True) == 1
        assert (
            registry.counter_value(
                "cluster.lifecycle.transitions",
                to="quarantined",
                trigger="scrub",
            )
            == 1
        )


class TestEscalation:
    def test_rebalance_rung_when_repair_forbidden(self, router, data, tmp_path):
        save_cluster(router, tmp_path, data.d_plus)
        rebalancer = Rebalancer(tmp_path, data.metric)
        lifecycle = ClusterLifecycle(
            router,
            data.d_plus,
            rebalancer,
            max_repair_attempts=0,
        )
        old_epoch = router.membership.epoch
        corrupt_shard(router)
        report = lifecycle.tick()
        # No repair allowed → the ladder escalates straight to a forced
        # cluster rebalance, which rebuilds every tree from the objects.
        assert report.rebalanced
        assert router.membership.epoch == old_epoch + 1
        assert not router.quarantine.contains(BAD_SHARD)
        assert report.folded == []
        assert_exact_answers(router, data)

    def test_fold_rung_is_the_last_honest_resort(self, router, data):
        lifecycle = ClusterLifecycle(
            router,
            data.d_plus,
            max_repair_attempts=0,
            escalate_to_rebalance=False,
        )
        corrupt_shard(router)
        report = lifecycle.tick()
        assert report.folded == [BAD_SHARD]
        assert lifecycle.state(BAD_SHARD) == "folded"
        assert router.membership.shards[BAD_SHARD].scan_only
        # Folded = permanent linear scan: slower, never wrong.
        assert_exact_answers(router, data)

    def test_folded_shard_is_not_scrubbed_again(self, router, data):
        lifecycle = ClusterLifecycle(
            router,
            data.d_plus,
            max_repair_attempts=0,
            escalate_to_rebalance=False,
        )
        corrupt_shard(router)
        lifecycle.tick()
        follow_up = lifecycle.tick()
        assert follow_up.promotions == 0
        assert follow_up.folded == []


class TestEpochFencing:
    def test_non_increasing_install_is_rejected(self, router, data):
        before = router.membership
        replacement = build_cluster(
            list(data.points),
            data.metric,
            n_shards=N_SHARDS,
            d_plus=data.d_plus,
            seed=14,
        )
        for epoch in (before.epoch, before.epoch - 1):
            with pytest.raises(StaleEpochError):
                router.install_membership(
                    list(replacement.membership.shards), epoch
                )
            assert router.membership is before

    def test_pinned_query_does_not_quarantine_the_successor_shard(
        self, data, tmp_path
    ):
        from repro.cluster import plan_rebalance

        router = build_cluster(
            list(data.points),
            data.metric,
            n_shards=N_SHARDS,
            d_plus=data.d_plus,
            seed=13,
            hedge_delay_s=math.inf,
        )
        save_cluster(router, tmp_path, data.d_plus)
        old = router.membership
        sick, slow = old.shards[0], old.shards[1]
        ShardFaultInjector(seed=13).kill(sick)
        # Hold the pinned query inside its scatter until the rebalance
        # has installed the new membership.
        scattering, release = threading.Event(), threading.Event()
        submit = slow.submit

        def held_submit(request, deadline=None, context=None, bound=math.inf):
            scattering.set()
            release.wait(timeout=10)
            return submit(
                request, deadline=deadline, context=context, bound=bound
            )

        slow.submit = held_submit
        outcomes = []
        query = threading.Thread(
            target=lambda: outcomes.append(
                router.execute(
                    QueryRequest("range", np.zeros(3), radius=data.d_plus)
                )
            )
        )
        query.start()
        assert scattering.wait(timeout=10)
        Rebalancer(tmp_path, data.metric).execute(
            router, plan_rebalance(router, data.d_plus, seed=5)
        )
        release.set()
        query.join(timeout=10)

        (outcome,) = outcomes
        assert outcome.epoch == old.epoch
        report = outcome.shard_reports[sick.shard_id]
        assert report.attempts == [("primary", "error")]
        assert router.membership.epoch == old.epoch + 1
        assert router.membership.shards[sick.shard_id] is not sick
        assert not router.quarantine.contains(sick.shard_id)
        # The dead shard was recorded, in the pinned membership only.
        assert old.quarantine.reason(sick.shard_id) == "unreachable"

    def test_health_check_acts_on_the_membership_it_started_with(
        self, router, data
    ):
        old = router.membership
        successor = build_cluster(
            list(data.points),
            data.metric,
            n_shards=N_SHARDS,
            d_plus=data.d_plus,
            seed=14,
        ).membership
        first, sick = old.shards[0], old.shards[1]
        ShardFaultInjector(seed=14).corrupt(sick)
        fsck = first.fsck

        def fsck_then_install():
            # A new membership lands while health_check is mid-walk.
            router.install_membership(list(successor.shards), old.epoch + 1)
            return fsck()

        first.fsck = fsck_then_install
        records = router.health_check()
        assert [r["shard_id"] for r in records] == [sick.shard_id]
        assert old.quarantine.reason(sick.shard_id) == "fsck"
        assert not router.quarantine.contains(sick.shard_id)
        assert router.recheck() == []

    def test_queries_during_rebalance_see_one_epoch_never_a_mix(
        self, router, data, tmp_path
    ):
        from repro.cluster import plan_rebalance

        save_cluster(router, tmp_path, data.d_plus)
        rebalancer = Rebalancer(tmp_path, data.metric)
        old_epoch = router.membership.epoch
        plan = plan_rebalance(router, data.d_plus, seed=5)
        outcomes = []
        errors = []
        start = threading.Event()

        def hammer():
            rng = np.random.default_rng(99)
            start.wait()
            try:
                for _ in range(40):
                    query = rng.normal(size=3)
                    outcomes.append(
                        router.execute(
                            QueryRequest(
                                "range", query, radius=0.25 * data.d_plus
                            )
                        )
                    )
            except Exception as exc:  # pragma: no cover - defensive
                errors.append(exc)

        worker = threading.Thread(target=hammer)
        worker.start()
        start.set()
        rebalancer.execute(router, plan)
        worker.join()

        assert errors == []
        assert router.membership.epoch == old_epoch + 1
        for outcome in outcomes:
            assert outcome.ok
            assert outcome.completeness == 1.0
            # Every answer names exactly one epoch — old or new.
            assert outcome.epoch in (old_epoch, old_epoch + 1)
            got = {oid for oid, _obj, _d in outcome.items}
            assert got == range_truth(
                data, outcome.request.query, outcome.request.radius
            )
