"""Pivot-based partitioning: coverage, exact pruning proofs, accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ShardStats, choose_pivots, partition_objects
from repro.datasets import clustered_dataset
from repro.exceptions import EmptyDatasetError, InvalidParameterError

N_OBJECTS = 160
N_SHARDS = 4


@pytest.fixture(scope="module")
def data():
    return clustered_dataset(N_OBJECTS, 4, seed=31)


@pytest.fixture(scope="module")
def part(data):
    return partition_objects(
        list(data.points), data.metric, N_SHARDS, data.d_plus, seed=31
    )


def test_every_object_in_exactly_one_shard(part):
    merged = np.concatenate(part.shard_indices)
    assert merged.size == N_OBJECTS
    assert np.array_equal(np.sort(merged), np.arange(N_OBJECTS))
    for shard_id, members in enumerate(part.shard_indices):
        assert np.all(part.assignments[members] == shard_id)


def test_objects_assigned_to_nearest_pivot(part, data):
    points = list(data.points)
    for i in range(0, N_OBJECTS, 7):
        dists = [data.metric(points[i], p) for p in part.pivots]
        assert part.assignments[i] == int(np.argmin(dists))


def test_pivot_distances_exact_and_sorted(part, data):
    points = list(data.points)
    for stats, members in zip(part.stats, part.shard_indices):
        recomputed = np.sort(
            np.asarray(
                data.metric.one_to_many(stats.pivot, [points[i] for i in members])
            )
        )
        assert np.allclose(stats.pivot_distances, recomputed)
        assert np.all(np.diff(stats.pivot_distances) >= 0)
        assert stats.n_objects == members.size
        assert stats.covering_radius == stats.pivot_distances[-1]


def test_dists_computed_accounting_is_exact(part):
    # Pivot selection spends n per pivot; the assignment matrix spends
    # n per pivot again; statistics reuse the matrix rows for free.
    assert part.dists_computed == 2 * N_SHARDS * N_OBJECTS


def test_zero_candidate_count_is_a_pruning_proof(part, data):
    """candidate_count == 0 must certify that *no* shard member matches."""
    rng = np.random.default_rng(7)
    points = list(data.points)
    proofs = 0
    for _ in range(40):
        query = rng.normal(size=4)
        radius = float(rng.uniform(0.01, 0.15) * data.d_plus)
        for stats, members in zip(part.stats, part.shard_indices):
            pivot_dist = float(data.metric(query, stats.pivot))
            if stats.candidate_count(pivot_dist, radius) == 0:
                proofs += 1
                true_dists = np.asarray(
                    data.metric.one_to_many(
                        query, [points[i] for i in members]
                    )
                )
                assert np.all(true_dists > radius)
    assert proofs > 0, "no pruning proof ever fired; widen the radius range"


def test_candidate_count_upper_bounds_true_matches(part, data):
    rng = np.random.default_rng(8)
    points = list(data.points)
    for _ in range(20):
        query = rng.normal(size=4)
        radius = float(rng.uniform(0.05, 0.5) * data.d_plus)
        for stats, members in zip(part.stats, part.shard_indices):
            pivot_dist = float(data.metric(query, stats.pivot))
            true_matches = sum(
                1
                for i in members
                if data.metric(query, points[i]) <= radius
            )
            assert stats.candidate_count(pivot_dist, radius) >= true_matches


def test_expected_matches_stays_in_range(part, data):
    rng = np.random.default_rng(9)
    for _ in range(10):
        query = rng.normal(size=4)
        for stats in part.stats:
            pivot_dist = float(data.metric(query, stats.pivot))
            expected = stats.expected_matches(pivot_dist, 0.1 * data.d_plus)
            assert 0.0 <= expected <= stats.n_objects
            # A query ball covering the whole domain expects everything.
            assert stats.expected_matches(
                0.0, pivot_dist + data.d_plus
            ) == pytest.approx(stats.n_objects)


def test_knn_upper_bounds_dominate_true_distances(part, data):
    """Sorted true query distances are elementwise <= the k bounds."""
    rng = np.random.default_rng(10)
    points = list(data.points)
    k = 5
    for _ in range(10):
        query = rng.normal(size=4)
        for stats, members in zip(part.stats, part.shard_indices):
            pivot_dist = float(data.metric(query, stats.pivot))
            bounds = stats.knn_upper_bounds(pivot_dist, k)
            take = min(k, stats.n_objects)
            assert bounds.shape == (take,)
            true_sorted = np.sort(
                np.asarray(
                    data.metric.one_to_many(
                        query, [points[i] for i in members]
                    )
                )
            )[:take]
            assert np.all(true_sorted <= bounds + 1e-9)


def test_parameter_validation(data):
    points = list(data.points)
    with pytest.raises(InvalidParameterError):
        choose_pivots(points, data.metric, 0)
    with pytest.raises(EmptyDatasetError):
        choose_pivots(points[:2], data.metric, 3)
    with pytest.raises(EmptyDatasetError):
        ShardStats.from_objects(0, [], points[0], data.metric, data.d_plus)
    stats = ShardStats.from_objects(
        0, points[:10], points[0], data.metric, data.d_plus
    )
    with pytest.raises(InvalidParameterError):
        stats.candidate_count(0.5, -0.1)
    with pytest.raises(InvalidParameterError):
        stats.expected_matches(0.5, -0.1)
    # A NaN radius must not count zero candidates: that is a false proof
    # that the shard holds no match.
    with pytest.raises(InvalidParameterError):
        stats.candidate_count(0.5, float("nan"))
    with pytest.raises(InvalidParameterError):
        stats.expected_matches(0.5, float("nan"))
    with pytest.raises(InvalidParameterError):
        stats.knn_upper_bounds(0.5, 0)
