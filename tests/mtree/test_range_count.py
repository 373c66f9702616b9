"""Tests for the aggregate-pushdown count query."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.metrics import L2
from repro.mtree import MTree, NodeLayout, bulk_load, vector_layout


@pytest.fixture(scope="module")
def tree_and_points():
    points = np.random.default_rng(0).random((1200, 4))
    layout = NodeLayout(node_size_bytes=256, object_bytes=16)
    return bulk_load(points, L2(), layout, seed=1), points


class TestRangeCount:
    @pytest.mark.parametrize("radius", [0.0, 0.1, 0.4, 0.9, 2.0])
    def test_count_matches_range_query(self, tree_and_points, radius):
        tree, _points = tree_and_points
        query = np.random.default_rng(2).random(4)
        count, _stats = tree.range_count(query, radius)
        assert count == len(tree.range_query(query, radius))

    def test_containment_saves_distances(self, tree_and_points):
        """At a radius covering most of the space, whole subtrees are
        counted without being visited."""
        tree, _points = tree_and_points
        query = np.full(4, 0.5)
        count, count_stats = tree.range_count(query, 1.2)
        full = tree.range_query(query, 1.2)
        assert count == len(full)
        assert count_stats.dists_computed < full.stats.dists_computed
        assert count_stats.nodes_accessed < full.stats.nodes_accessed

    def test_cache_invalidated_by_insert(self, tree_and_points):
        tree, _points = tree_and_points
        query = np.full(4, 0.5)
        before, _ = tree.range_count(query, 2.0)
        new_oid = tree.insert(np.full(4, 0.5))
        after, _ = tree.range_count(query, 2.0)
        assert after == before + 1
        # restore module-scoped fixture state
        assert tree.delete(np.full(4, 0.5), oid=new_oid)

    def test_cache_invalidated_by_delete(self):
        points = np.random.default_rng(3).random((200, 3))
        layout = NodeLayout(node_size_bytes=256, object_bytes=12)
        tree = bulk_load(points, L2(), layout, seed=4)
        query = np.full(3, 0.5)
        before, _ = tree.range_count(query, 2.0)
        assert tree.delete(points[0], oid=0)
        after, _ = tree.range_count(query, 2.0)
        assert after == before - 1

    def test_empty_tree(self):
        tree = MTree(L2(), vector_layout(3))
        count, stats = tree.range_count(np.zeros(3), 1.0)
        assert count == 0
        assert stats.nodes_accessed == 0

    def test_negative_radius_rejected(self, tree_and_points):
        tree, _points = tree_and_points
        with pytest.raises(InvalidParameterError):
            tree.range_count(np.zeros(4), -0.1)

    @pytest.mark.parametrize("radius", [-0.1, float("nan")])
    def test_invalid_radius_rejected(self, tree_and_points, radius):
        tree, _points = tree_and_points
        with pytest.raises(InvalidParameterError):
            tree.range_count(np.zeros(4), radius)


class TestHistogramMerge:
    def test_identity_merge(self):
        from repro.core import DistanceHistogram

        hist = DistanceHistogram([1, 3, 2], 3.0)
        merged = hist.merge(hist)
        xs = np.linspace(0, 3, 13)
        np.testing.assert_allclose(merged.cdf(xs), hist.cdf(xs), atol=1e-12)

    def test_weighted_average(self):
        from repro.core import DistanceHistogram

        low = DistanceHistogram([1, 0], 1.0)  # all mass in [0, 0.5)
        high = DistanceHistogram([0, 1], 1.0)  # all mass in [0.5, 1)
        merged = low.merge(high, weight=0.25)
        assert merged.cdf(0.5) == pytest.approx(0.25)

    def test_reconciles_bin_counts(self):
        from repro.core import DistanceHistogram

        coarse = DistanceHistogram.uniform(4, 2.0)
        fine = DistanceHistogram.uniform(32, 2.0)
        merged = coarse.merge(fine)
        assert merged.n_bins == 32
        assert merged.cdf(1.0) == pytest.approx(0.5)

    def test_validation(self):
        from repro.core import DistanceHistogram

        a = DistanceHistogram([1], 1.0)
        b = DistanceHistogram([1], 2.0)
        with pytest.raises(InvalidParameterError):
            a.merge(b)
        with pytest.raises(InvalidParameterError):
            a.merge(a, weight=1.5)
