"""Tests for N-MCM and L-MCM against hand-computed sums (Eqs. 5-8, 15-16)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    DistanceHistogram,
    LevelBasedCostModel,
    LevelStat,
    NodeBasedCostModel,
    NodeStat,
    level_stats_from_node_stats,
)
from repro.exceptions import InvalidParameterError


@pytest.fixture
def hist():
    return DistanceHistogram.uniform(100, 1.0)


@pytest.fixture
def node_stats():
    """A tiny 2-level tree: root (radius d+ = 1) with two children."""
    return [
        NodeStat(radius=1.0, n_entries=2, level=1),
        NodeStat(radius=0.3, n_entries=5, level=2),
        NodeStat(radius=0.5, n_entries=7, level=2),
    ]


class TestNodeBased:
    def test_range_nodes_is_sum_of_probabilities(self, hist, node_stats):
        model = NodeBasedCostModel(hist, node_stats, n_objects=12)
        r = 0.1
        expected = (
            hist.cdf(1.0 + r) + hist.cdf(0.3 + r) + hist.cdf(0.5 + r)
        )
        assert model.range_nodes(r) == pytest.approx(float(expected))

    def test_range_dists_weights_by_entries(self, hist, node_stats):
        model = NodeBasedCostModel(hist, node_stats, n_objects=12)
        r = 0.1
        expected = (
            2 * hist.cdf(1.0 + r)
            + 5 * hist.cdf(0.3 + r)
            + 7 * hist.cdf(0.5 + r)
        )
        assert model.range_dists(r) == pytest.approx(float(expected))

    def test_range_objs_eq8(self, hist, node_stats):
        model = NodeBasedCostModel(hist, node_stats, n_objects=12)
        assert model.range_objs(0.25) == pytest.approx(12 * 0.25)

    def test_root_always_accessed(self, hist, node_stats):
        model = NodeBasedCostModel(hist, node_stats, n_objects=12)
        # Even at radius 0, the root contributes F(d+) = 1.
        assert float(model.range_nodes(0.0)) >= 1.0

    def test_bounded_by_tree_size(self, hist, node_stats):
        model = NodeBasedCostModel(hist, node_stats, n_objects=12)
        assert float(model.range_nodes(1.0)) <= 3.0 + 1e-9
        assert float(model.range_dists(1.0)) <= 14.0 + 1e-9

    def test_monotone_in_radius(self, hist, node_stats):
        model = NodeBasedCostModel(hist, node_stats, n_objects=12)
        radii = np.linspace(0, 1, 11)
        nodes_curve = np.asarray(model.range_nodes(radii))
        dists_curve = np.asarray(model.range_dists(radii))
        assert (np.diff(nodes_curve) >= -1e-12).all()
        assert (np.diff(dists_curve) >= -1e-12).all()

    def test_vectorised_matches_scalar(self, hist, node_stats):
        model = NodeBasedCostModel(hist, node_stats, n_objects=12)
        radii = np.array([0.0, 0.2, 0.7])
        curve = np.asarray(model.range_nodes(radii))
        for r, value in zip(radii, curve):
            assert value == pytest.approx(float(model.range_nodes(float(r))))

    def test_range_costs_bundle(self, hist, node_stats):
        model = NodeBasedCostModel(hist, node_stats, n_objects=12)
        costs = model.range_costs(0.2)
        assert costs.nodes == pytest.approx(float(model.range_nodes(0.2)))
        assert costs.dists == pytest.approx(float(model.range_dists(0.2)))
        assert costs.objs == pytest.approx(float(model.range_objs(0.2)))

    @pytest.mark.parametrize(
        "bad_stats",
        [
            [],
            [NodeStat(radius=-0.1, n_entries=3, level=1)],
            [NodeStat(radius=0.5, n_entries=0, level=1)],
            [NodeStat(radius=float("nan"), n_entries=3, level=1)],
        ],
    )
    def test_invalid_stats(self, hist, bad_stats):
        with pytest.raises(InvalidParameterError):
            NodeBasedCostModel(hist, bad_stats, n_objects=10)

    def test_invalid_n_objects(self, hist, node_stats):
        with pytest.raises(InvalidParameterError):
            NodeBasedCostModel(hist, node_stats, n_objects=0)


class TestLevelBased:
    def test_eq15_nodes(self, hist):
        stats = [
            LevelStat(level=1, n_nodes=1, avg_radius=1.0),
            LevelStat(level=2, n_nodes=4, avg_radius=0.4),
        ]
        model = LevelBasedCostModel(hist, stats, n_objects=40)
        r = 0.2
        expected = 1 * hist.cdf(1.0 + r) + 4 * hist.cdf(0.4 + r)
        assert model.range_nodes(r) == pytest.approx(float(expected))

    def test_eq16_dists_shifts_levels(self, hist):
        """dists uses M_{l+1}: entries at level l = nodes at level l+1,
        with M_{L+1} = n."""
        stats = [
            LevelStat(level=1, n_nodes=1, avg_radius=1.0),
            LevelStat(level=2, n_nodes=4, avg_radius=0.4),
        ]
        n = 40
        model = LevelBasedCostModel(hist, stats, n_objects=n)
        r = 0.2
        expected = 4 * hist.cdf(1.0 + r) + n * hist.cdf(0.4 + r)
        assert model.range_dists(r) == pytest.approx(float(expected))

    def test_matches_node_based_for_homogeneous_tree(self, hist):
        """When all nodes at a level share the same radius and entry count,
        N-MCM and L-MCM agree exactly for node reads."""
        node_stats = [
            NodeStat(radius=1.0, n_entries=3, level=1),
            NodeStat(radius=0.4, n_entries=5, level=2),
            NodeStat(radius=0.4, n_entries=5, level=2),
            NodeStat(radius=0.4, n_entries=5, level=2),
        ]
        level_stats = level_stats_from_node_stats(node_stats)
        n = 15
        node_model = NodeBasedCostModel(hist, node_stats, n)
        level_model = LevelBasedCostModel(hist, level_stats, n)
        for r in (0.0, 0.1, 0.5):
            assert float(node_model.range_nodes(r)) == pytest.approx(
                float(level_model.range_nodes(r))
            )
            assert float(node_model.range_dists(r)) == pytest.approx(
                float(level_model.range_dists(r))
            )

    def test_level_stats_must_cover_1_to_L(self, hist):
        with pytest.raises(InvalidParameterError):
            LevelBasedCostModel(
                hist,
                [LevelStat(level=2, n_nodes=3, avg_radius=0.5)],
                n_objects=10,
            )
        with pytest.raises(InvalidParameterError):
            LevelBasedCostModel(
                hist,
                [
                    LevelStat(level=1, n_nodes=1, avg_radius=1.0),
                    LevelStat(level=3, n_nodes=2, avg_radius=0.4),
                ],
                n_objects=10,
            )

    @pytest.mark.parametrize("avg_radius", [-0.1, float("nan")])
    def test_invalid_avg_radius_rejected(self, hist, avg_radius):
        with pytest.raises(InvalidParameterError):
            LevelBasedCostModel(
                hist,
                [LevelStat(level=1, n_nodes=1, avg_radius=avg_radius)],
                n_objects=10,
            )

    def test_height_property(self, hist):
        stats = [
            LevelStat(level=1, n_nodes=1, avg_radius=1.0),
            LevelStat(level=2, n_nodes=3, avg_radius=0.5),
            LevelStat(level=3, n_nodes=9, avg_radius=0.2),
        ]
        model = LevelBasedCostModel(hist, stats, n_objects=90)
        assert model.height == 3


class TestLevelAggregation:
    def test_aggregates_means(self):
        node_stats = [
            NodeStat(radius=1.0, n_entries=2, level=1),
            NodeStat(radius=0.2, n_entries=4, level=2),
            NodeStat(radius=0.4, n_entries=6, level=2),
        ]
        levels = level_stats_from_node_stats(node_stats)
        assert len(levels) == 2
        assert levels[0].n_nodes == 1
        assert levels[1].n_nodes == 2
        assert levels[1].avg_radius == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            level_stats_from_node_stats([])


class TestNNCosts:
    @pytest.fixture
    def model(self, hist):
        stats = [
            LevelStat(level=1, n_nodes=1, avg_radius=1.0),
            LevelStat(level=2, n_nodes=10, avg_radius=0.25),
        ]
        return LevelBasedCostModel(hist, stats, n_objects=100)

    def test_all_methods_run(self, model):
        for method in ("integral", "expected-radius", "min-selectivity"):
            estimate = model.nn_costs(1, method=method)
            assert estimate.nodes > 0
            assert estimate.dists > 0
            assert estimate.method == method
            assert 0 <= estimate.expected_nn_distance <= 1.0

    def test_unknown_method_rejected(self, model):
        with pytest.raises(InvalidParameterError):
            model.nn_costs(1, method="nope")

    def test_integral_close_to_expected_radius_for_k1(self, model):
        """The two estimators should be in the same ballpark (the paper
        plots them as near-coincident for most D)."""
        integral = model.nn_costs(1, method="integral")
        at_radius = model.nn_costs(1, method="expected-radius")
        assert integral.nodes == pytest.approx(at_radius.nodes, rel=0.35)

    def test_nn_costs_bounded_by_tree(self, model):
        estimate = model.nn_costs(1, method="integral")
        assert estimate.nodes <= 11 + 1e-6
        assert estimate.dists <= 1 * 10 + 100 + 1e-6

    def test_nn_monotone_in_k(self, model):
        costs = [
            model.nn_costs(k, method="integral").nodes for k in (1, 2, 5, 20)
        ]
        assert costs == sorted(costs)
