"""Tests for the vp-tree cost model (Eqs. 19-23)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DistanceHistogram,
    VPTreeCostModel,
    vp_root_children_accessed,
)
from repro.exceptions import InvalidParameterError


@pytest.fixture
def uniform_hist():
    return DistanceHistogram.uniform(100, 1.0)


class TestRootChildren:
    def test_eq21_manual(self, uniform_hist):
        """Uniform F, m = 2, r_Q = 0.1: mu_1 = 0.5.
        child 1: F(0.5 + 0.1) - F(0 - 0.1) = 0.6
        child 2: F(1 + 0.1) - F(0.5 - 0.1) = 1 - 0.4 = 0.6
        total = 1.2.
        """
        value = vp_root_children_accessed(uniform_hist, 2, 0.1)
        assert value == pytest.approx(1.2, abs=1e-6)

    def test_zero_radius_covers_exactly_one_child(self, uniform_hist):
        """With r_Q = 0 the query distance falls in exactly one shell."""
        for m in (2, 3, 5):
            value = vp_root_children_accessed(uniform_hist, m, 0.0)
            assert value == pytest.approx(1.0, abs=1e-6)

    def test_large_radius_covers_all_children(self, uniform_hist):
        for m in (2, 4):
            value = vp_root_children_accessed(uniform_hist, m, 1.0)
            assert value == pytest.approx(m, abs=1e-6)

    def test_monotone_in_radius(self, uniform_hist):
        values = [
            vp_root_children_accessed(uniform_hist, 3, r)
            for r in (0.0, 0.05, 0.1, 0.3, 0.6)
        ]
        assert values == sorted(values)

    def test_invalid_params(self, uniform_hist):
        with pytest.raises(InvalidParameterError):
            vp_root_children_accessed(uniform_hist, 1, 0.1)
        with pytest.raises(InvalidParameterError):
            vp_root_children_accessed(uniform_hist, 2, -0.1)
        with pytest.raises(InvalidParameterError):
            vp_root_children_accessed(uniform_hist, 2, float("nan"))


class TestCostModel:
    def test_single_object(self, uniform_hist):
        model = VPTreeCostModel(uniform_hist, 1, arity=2)
        assert model.range_dists(0.1) == 1.0

    def test_bounded_by_n(self, uniform_hist):
        n = 200
        model = VPTreeCostModel(uniform_hist, n, arity=3)
        for r in (0.0, 0.1, 0.5, 1.0):
            value = model.range_dists(r)
            assert 1.0 <= value <= n + 1e-6

    def test_full_radius_visits_everything(self, uniform_hist):
        n = 63
        model = VPTreeCostModel(uniform_hist, n, arity=2)
        assert model.range_dists(1.0) == pytest.approx(n, rel=1e-6)

    def test_monotone_in_radius(self, uniform_hist):
        model = VPTreeCostModel(uniform_hist, 100, arity=3)
        curve = model.range_dists_curve(np.linspace(0, 1, 8))
        assert (np.diff(curve) >= -1e-9).all()

    def test_memoization_does_not_change_result(self, uniform_hist):
        with_memo = VPTreeCostModel(uniform_hist, 80, arity=3, memoize=True)
        without = VPTreeCostModel(uniform_hist, 80, arity=3, memoize=False)
        assert with_memo.range_dists(0.15) == pytest.approx(
            without.range_dists(0.15)
        )

    def test_higher_arity_fewer_levels(self, uniform_hist):
        """Small radius: a higher-arity tree descends fewer nodes."""
        small = VPTreeCostModel(uniform_hist, 255, arity=2)
        large = VPTreeCostModel(uniform_hist, 255, arity=8)
        assert large.range_dists(0.01) <= small.range_dists(0.01)

    def test_invalid_params(self, uniform_hist):
        with pytest.raises(InvalidParameterError):
            VPTreeCostModel(uniform_hist, 0, arity=2)
        with pytest.raises(InvalidParameterError):
            VPTreeCostModel(uniform_hist, 10, arity=1)
        model = VPTreeCostModel(uniform_hist, 10, arity=2)
        with pytest.raises(InvalidParameterError):
            model.range_dists(-0.5)
        with pytest.raises(InvalidParameterError):
            model.range_dists(float("nan"))

    def test_nn_dists_monotone_in_k(self, uniform_hist):
        model = VPTreeCostModel(uniform_hist, 200, arity=3)
        values = [model.nn_dists(k) for k in (1, 5, 20)]
        assert values == sorted(values)

    def test_nn_dists_bounded(self, uniform_hist):
        model = VPTreeCostModel(uniform_hist, 100, arity=2)
        value = model.nn_dists(1)
        assert 1.0 <= value <= 100.0

    def test_nn_dists_tracks_actual(self):
        """End-to-end: the footnote-3 NN extension lands within a band of
        measured vp-tree k-NN costs on uniform data."""
        from repro.core import estimate_distance_histogram
        from repro.datasets import uniform_dataset
        from repro.vptree import VPTree
        from repro.workloads import run_vptree_knn_workload, sample_workload

        data = uniform_dataset(1200, 6, seed=5)
        tree = VPTree.build(list(data.points), data.metric, arity=3, seed=6)
        hist = estimate_distance_histogram(
            data.points, data.metric, data.d_plus, n_bins=100
        )
        model = VPTreeCostModel(hist, data.size, arity=3)
        workload = sample_workload(data, 30, seed=7)
        for k in (1, 10):
            measured = run_vptree_knn_workload(tree, workload, k)
            predicted = model.nn_dists(k)
            assert 0.4 * measured.mean_dists < predicted < 2.5 * measured.mean_dists

    def test_nn_dists_validation(self, uniform_hist):
        model = VPTreeCostModel(uniform_hist, 50, arity=2)
        with pytest.raises(InvalidParameterError):
            model.nn_dists(0)
        with pytest.raises(InvalidParameterError):
            model.nn_dists(51)
        with pytest.raises(InvalidParameterError):
            model.nn_dists(1, quantile_points=0)

    def test_zero_radius_cost_is_logarithmic_path(self, uniform_hist):
        """At r = 0 the expected accesses follow a single root-to-leaf path:
        about log_m(n) nodes."""
        n, m = 10_000, 4
        model = VPTreeCostModel(uniform_hist, n, arity=m)
        value = model.range_dists(0.0)
        expected_depth = np.log(n) / np.log(m)
        assert value == pytest.approx(expected_depth, rel=0.5)
