"""Tests for the query-sensitive (multi-viewpoint) cost model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    NodeBasedCostModel,
    QuerySensitiveCostModel,
    estimate_distance_histogram,
    fit_viewpoints,
)
from repro.datasets import clustered_dataset, uniform_dataset
from repro.exceptions import EmptyDatasetError, InvalidParameterError
from repro.metrics import LInf
from repro.mtree import (
    bulk_load,
    collect_node_records,
    collect_node_stats,
    vector_layout,
)


@pytest.fixture(scope="module")
def bimodal():
    """A deliberately non-homogeneous space: two scales, two densities."""
    rng = np.random.default_rng(4)
    tight = np.clip(rng.normal(0.12, 0.02, size=(800, 4)), 0, 1)
    spread = np.clip(rng.normal(0.7, 0.15, size=(800, 4)), 0, 1)
    points = np.vstack([tight, spread])
    metric = LInf()
    tree = bulk_load(points, metric, vector_layout(4), seed=5)
    return points, tight, spread, metric, tree


class TestFitViewpoints:
    def test_basic_fit(self, bimodal):
        points, _tight, _spread, metric, _tree = bimodal
        vs = fit_viewpoints(points, metric, 1.0, n_viewpoints=6)
        assert vs.size == 6
        assert vs.bandwidth > 0
        assert len(vs.rdds) == 6

    def test_farthest_point_covers_both_modes(self, bimodal):
        points, tight, spread, metric, _tree = bimodal
        vs = fit_viewpoints(
            points, metric, 1.0, n_viewpoints=4,
            rng=np.random.default_rng(0),
        )
        # At least one viewpoint near each cluster centre.
        viewpoint_arr = np.asarray(vs.viewpoints)
        near_tight = (np.abs(viewpoint_arr - 0.12).max(axis=1) < 0.3).any()
        near_spread = (np.abs(viewpoint_arr - 0.7).max(axis=1) < 0.45).any()
        assert near_tight and near_spread

    def test_caps_at_population(self):
        data = uniform_dataset(10, 2, seed=1)
        vs = fit_viewpoints(data.points, data.metric, 1.0, n_viewpoints=50)
        assert vs.size <= 10

    def test_validation(self, bimodal):
        points, _t, _s, metric, _tree = bimodal
        with pytest.raises(EmptyDatasetError):
            fit_viewpoints(points[:1], metric, 1.0)
        with pytest.raises(InvalidParameterError):
            fit_viewpoints(points, metric, 1.0, n_viewpoints=0)
        with pytest.raises(InvalidParameterError):
            fit_viewpoints(points, metric, 1.0, n_targets=1)


class TestQuerySensitiveModel:
    @pytest.fixture(scope="class")
    def model(self, bimodal):
        points, _t, _s, metric, tree = bimodal
        vs = fit_viewpoints(
            points, metric, 1.0, n_viewpoints=16,
            rng=np.random.default_rng(6),
        )
        records = collect_node_records(tree, 1.0)
        return QuerySensitiveCostModel(vs, metric, len(points), records)

    def test_overhead_reported(self, model):
        assert model.overhead_dists == 16

    def test_predictions_vary_with_query(self, model, bimodal):
        _points, tight, spread, _metric, _tree = bimodal
        tight_estimate = model.range_costs(tight[0], 0.1).dists
        spread_estimate = model.range_costs(spread[0], 0.1).dists
        assert tight_estimate != pytest.approx(spread_estimate, rel=0.01)

    def test_beats_global_model_on_nonhomogeneous_space(self, model, bimodal):
        points, tight, spread, metric, tree = bimodal
        hist = estimate_distance_histogram(points, metric, 1.0, n_bins=100)
        global_model = NodeBasedCostModel(
            hist, collect_node_stats(tree, 1.0), len(points)
        )
        queries = list(tight[:15]) + list(spread[:15])
        global_errors, position_errors = [], []
        for query in queries:
            actual = tree.range_query(query, 0.1).stats.dists_computed
            global_errors.append(
                abs(float(global_model.range_dists(0.1)) - actual) / actual
            )
            position_errors.append(
                abs(model.range_costs(query, 0.1).dists - actual) / actual
            )
        assert np.mean(position_errors) < np.mean(global_errors)

    def test_blend_histogram_valid(self, model, bimodal):
        _points, tight, _spread, _metric, _tree = bimodal
        hist = model.blend_histogram(tight[0])
        xs = np.linspace(0, 1, 21)
        values = np.asarray(hist.cdf(xs))
        assert (np.diff(values) >= -1e-12).all()
        assert values[-1] == pytest.approx(1.0)

    def test_blend_estimator_also_runs(self, model, bimodal):
        _points, tight, _s, _m, _tree = bimodal
        estimate = model.range_costs_via_blend(tight[0], 0.1)
        assert estimate.nodes > 0
        assert estimate.dists > 0

    def test_costs_bounded_by_tree(self, model, bimodal):
        points, tight, _s, _m, tree = bimodal
        estimate = model.range_costs(tight[0], 1.0)
        assert estimate.nodes <= tree.n_nodes() + 1e-9
        assert estimate.objs <= len(points) + 1e-9

    def test_negative_radius_rejected(self, model, bimodal):
        _points, tight, _s, _m, _tree = bimodal
        for radius in (-0.1, float("nan")):
            with pytest.raises(InvalidParameterError):
                model.range_costs(tight[0], radius)
            with pytest.raises(InvalidParameterError):
                model.range_costs_via_blend(tight[0], radius)

    def test_validation(self, bimodal):
        points, _t, _s, metric, tree = bimodal
        vs = fit_viewpoints(points, metric, 1.0, n_viewpoints=2)
        with pytest.raises(InvalidParameterError):
            QuerySensitiveCostModel(vs, metric, len(points), [])
        with pytest.raises(InvalidParameterError):
            QuerySensitiveCostModel(
                vs, metric, 0, collect_node_records(tree, 1.0)
            )

    def test_converges_with_more_viewpoints(self, bimodal):
        """More viewpoints pin the triangle intervals tighter; per-query
        error should not increase."""
        points, tight, spread, metric, tree = bimodal
        records = collect_node_records(tree, 1.0)
        queries = list(tight[:8]) + list(spread[:8])
        actuals = [
            tree.range_query(q, 0.1).stats.dists_computed for q in queries
        ]
        errors = {}
        for m in (2, 8, 32):
            vs = fit_viewpoints(
                points, metric, 1.0, n_viewpoints=m,
                rng=np.random.default_rng(7),
            )
            model = QuerySensitiveCostModel(vs, metric, len(points), records)
            errors[m] = np.mean(
                [
                    abs(model.range_costs(q, 0.1).dists - a) / a
                    for q, a in zip(queries, actuals)
                ]
            )
        assert errors[32] <= errors[2] + 0.02
