"""Crash-safe shard rebalance: planning, one-save commit, kill-at-every-step.

A kill at *any* save step must leave the cluster answering from exactly
one epoch — the old one or the new one, never a mix — and store recovery
plus at most one re-plan and execute must always reach the new epoch
with no stale files left.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    Rebalancer,
    Router,
    build_cluster,
    load_cluster,
    plan_rebalance,
    save_cluster,
)
from repro.datasets import clustered_dataset
from repro.exceptions import InvalidParameterError, StaleEpochError
from repro.service import QueryRequest
from repro.service.recovery import SimulatedCrashError

N_OBJECTS = 90
N_SHARDS = 3


@pytest.fixture(scope="module")
def data():
    return clustered_dataset(N_OBJECTS, 3, seed=7)


def make_router(data) -> Router:
    return build_cluster(
        list(data.points),
        data.metric,
        n_shards=N_SHARDS,
        d_plus=data.d_plus,
        seed=7,
    )


def range_truth(data, query, radius):
    dists = np.asarray(data.metric.one_to_many(query, list(data.points)))
    return {int(i) for i in np.flatnonzero(dists <= radius)}


def answered_oids(router, query, radius):
    outcome = router.execute(QueryRequest("range", query, radius=radius))
    assert outcome.ok
    assert outcome.completeness == 1.0
    return {oid for oid, _obj, _d in outcome.items}, outcome


def all_cluster_oids(router):
    oids = []
    for shard in router.membership.shards:
        oids.extend(shard.oids)
    return sorted(oids)


class TestSaveLoad:
    def test_round_trip_preserves_answers_and_epoch(self, data, tmp_path):
        router = make_router(data)
        steps = save_cluster(router, tmp_path, data.d_plus)
        assert steps > 0
        reloaded = load_cluster(tmp_path, data.metric)
        assert reloaded.membership.epoch == router.membership.epoch
        rng = np.random.default_rng(3)
        for _ in range(8):
            query = rng.normal(size=3)
            radius = 0.25 * data.d_plus
            before, _ = answered_oids(router, query, radius)
            after, _ = answered_oids(reloaded, query, radius)
            assert before == after == range_truth(data, query, radius)

    def test_committed_epoch_readable_without_loading_trees(
        self, data, tmp_path
    ):
        router = make_router(data)
        save_cluster(router, tmp_path, data.d_plus)
        rebalancer = Rebalancer(tmp_path, data.metric)
        assert rebalancer.committed_epoch() == router.membership.epoch

    def test_load_on_empty_directory_fails_loudly(self, data, tmp_path):
        with pytest.raises(InvalidParameterError):
            load_cluster(tmp_path, data.metric)


class TestPlanning:
    def test_plan_partitions_every_object_exactly_once(self, data):
        router = make_router(data)
        plan = plan_rebalance(router, data.d_plus, seed=1)
        assert plan.n_shards == N_SHARDS
        assert plan.epoch_from == router.membership.epoch
        assert plan.epoch_to == router.membership.epoch + 1
        flat = sorted(oid for group in plan.oids for oid in group)
        assert flat == all_cluster_oids(router)
        assert plan.total_objects == N_OBJECTS

    def test_plan_costs_are_populated_and_deterministic(self, data):
        router = make_router(data)
        first = plan_rebalance(router, data.d_plus, seed=1)
        second = plan_rebalance(router, data.d_plus, seed=1)
        assert first.old_cost > 0
        assert first.new_cost > 0
        assert first.dists_computed > 0
        assert first.oids == second.oids
        assert first.old_cost == second.old_cost
        assert first.dists_computed == second.dists_computed

    def test_degraded_shard_inflates_old_cost(self, data):
        router = make_router(data)
        baseline = plan_rebalance(router, data.d_plus, seed=1)
        router.quarantine.add(0, "scrub")
        degraded = plan_rebalance(router, data.d_plus, seed=1)
        assert degraded.old_cost > baseline.old_cost
        # A quarantined source makes the fresh layout *more* attractive.
        assert degraded.gain > baseline.gain

    def test_improves_threshold(self, data):
        router = make_router(data)
        plan = plan_rebalance(router, data.d_plus, seed=1)
        assert plan.improves(min_gain=-10.0)
        assert not plan.improves(min_gain=10.0)


class TestExecute:
    def test_rebalance_bumps_epoch_and_preserves_answers(
        self, data, tmp_path
    ):
        router = make_router(data)
        save_cluster(router, tmp_path, data.d_plus)
        rebalancer = Rebalancer(tmp_path, data.metric)
        plan = plan_rebalance(router, data.d_plus, seed=1)
        outcome = rebalancer.execute(router, plan)
        assert outcome.membership is router.membership
        assert outcome.epoch == plan.epoch_to
        assert router.membership.epoch == plan.epoch_to
        assert rebalancer.committed_epoch() == plan.epoch_to
        assert rebalancer.store.stale_files() == []
        rng = np.random.default_rng(4)
        for _ in range(8):
            query = rng.normal(size=3)
            radius = 0.25 * data.d_plus
            got, outcome = answered_oids(router, query, radius)
            assert got == range_truth(data, query, radius)
            assert outcome.epoch == plan.epoch_to

    def test_stale_plan_is_rejected(self, data, tmp_path):
        router = make_router(data)
        save_cluster(router, tmp_path, data.d_plus)
        rebalancer = Rebalancer(tmp_path, data.metric)
        stale = plan_rebalance(router, data.d_plus, seed=1)
        fresh = plan_rebalance(router, data.d_plus, seed=2)
        rebalancer.execute(router, fresh)
        with pytest.raises(StaleEpochError):
            rebalancer.execute(router, stale)


class TestKillAtEveryStep:
    """The issue's acceptance criterion, exhaustively."""

    def test_single_epoch_at_every_crash_point(self, data, tmp_path):
        rng = np.random.default_rng(11)
        probes = [rng.normal(size=3) for _ in range(4)]
        radius = 0.25 * data.d_plus
        truths = [range_truth(data, q, radius) for q in probes]

        scratch = Rebalancer(tmp_path / "probe", data.metric)
        total = scratch.total_steps(N_SHARDS)
        assert total == N_SHARDS + 5

        for k in range(total + 1):
            directory = tmp_path / f"kill-{k}"
            router = make_router(data)
            old_epoch = router.membership.epoch
            save_cluster(router, directory, data.d_plus)
            rebalancer = Rebalancer(directory, data.metric)
            plan = plan_rebalance(router, data.d_plus, seed=1)
            new_epoch = plan.epoch_to
            if k < total:
                with pytest.raises(SimulatedCrashError):
                    rebalancer.execute(router, plan, crash_after_step=k)
            else:
                rebalancer.execute(router, plan)

            # 1. After the crash the store answers from exactly ONE
            #    epoch, and it owns every object exactly once.
            recovered = Rebalancer(directory, data.metric)
            recovered.store.recover()
            survivor = load_cluster(directory, data.metric)
            assert survivor.membership.epoch in (old_epoch, new_epoch), k
            assert all_cluster_oids(survivor) == list(range(N_OBJECTS)), k
            for query, truth in zip(probes, truths):
                got, outcome = answered_oids(survivor, query, radius)
                assert got == truth, k
                assert outcome.epoch == survivor.membership.epoch, k

            # 2. A crash before the commit point left the old epoch:
            #    re-planning from the store reaches the same target.
            if survivor.membership.epoch == old_epoch:
                fresh_plan = plan_rebalance(survivor, data.d_plus, seed=1)
                assert fresh_plan.epoch_to == new_epoch, k
                recovered.execute(survivor, fresh_plan)
            assert recovered.committed_epoch() == new_epoch, k
            assert recovered.store.stale_files() == [], k
            final = load_cluster(directory, data.metric)
            assert final.membership.epoch == new_epoch, k
            assert all_cluster_oids(final) == list(range(N_OBJECTS)), k
            for query, truth in zip(probes, truths):
                got, _ = answered_oids(final, query, radius)
                assert got == truth, k


class TestGC:
    def make_debris(self, data, directory, crash_after_step):
        router = make_router(data)
        save_cluster(router, directory, data.d_plus)
        rebalancer = Rebalancer(directory, data.metric)
        plan = plan_rebalance(router, data.d_plus, seed=1)
        with pytest.raises(SimulatedCrashError):
            rebalancer.execute(router, plan, crash_after_step=crash_after_step)
        return rebalancer.store, plan

    def test_pre_commit_crash_leaves_old_epoch_and_no_debris(
        self, data, tmp_path
    ):
        # Step 2 = store journal + the first new shard file.
        store, plan = self.make_debris(data, tmp_path, 2)
        assert store.stale_files()
        store.recover()
        assert store.stale_files() == []
        survivor = load_cluster(tmp_path, data.metric)
        assert survivor.membership.epoch == plan.epoch_from
        assert all_cluster_oids(survivor) == list(range(N_OBJECTS))

    def test_post_commit_crash_leaves_reclaimable_debris(
        self, data, tmp_path
    ):
        # The last step is the old-generation GC: the crash strands the
        # whole superseded generation after the journal is gone.
        last = Rebalancer(tmp_path, data.metric).total_steps(N_SHARDS) - 1
        store, plan = self.make_debris(data, tmp_path, last)
        assert not store.journal_path.exists()
        assert len(store.stale_files()) == N_SHARDS + 1
        assert store.recover().action == "clean"
        assert store.stale_files() == []
        survivor = load_cluster(tmp_path, data.metric)
        assert survivor.membership.epoch == plan.epoch_to
        assert all_cluster_oids(survivor) == list(range(N_OBJECTS))
