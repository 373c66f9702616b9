"""Tests for complex similarity queries: tree execution + cost model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ComplexRangeCostModel,
    DistanceHistogram,
    NodeStat,
    estimate_distance_histogram,
)
from repro.datasets import uniform_dataset
from repro.exceptions import InvalidParameterError
from repro.metrics import L2, LInf
from repro.mtree import bulk_load, collect_node_stats, vector_layout


@pytest.fixture(scope="module")
def setup():
    data = uniform_dataset(2000, 5, seed=1)
    tree = bulk_load(data.points, data.metric, vector_layout(5), seed=2)
    hist = estimate_distance_histogram(
        data.points, data.metric, data.d_plus, n_bins=100
    )
    model = ComplexRangeCostModel(
        hist, collect_node_stats(tree, data.d_plus), data.size
    )
    rng = np.random.default_rng(3)
    return data, tree, model, rng


def brute_force_and(points, metric, predicates):
    out = []
    for i, p in enumerate(points):
        if all(metric.distance(q, p) <= r for q, r in predicates):
            out.append(i)
    return out


def brute_force_or(points, metric, predicates):
    out = []
    for i, p in enumerate(points):
        if any(metric.distance(q, p) <= r for q, r in predicates):
            out.append(i)
    return out


class TestComplexQueryExecution:
    def test_and_matches_brute_force(self, setup):
        data, tree, _model, rng = setup
        predicates = [(rng.random(5), 0.3), (rng.random(5), 0.35)]
        result = tree.complex_range_query(predicates, mode="and")
        expected = brute_force_and(data.points, data.metric, predicates)
        assert sorted(result.oids()) == expected

    def test_or_matches_brute_force(self, setup):
        data, tree, _model, rng = setup
        predicates = [(rng.random(5), 0.2), (rng.random(5), 0.25)]
        result = tree.complex_range_query(predicates, mode="or")
        expected = brute_force_or(data.points, data.metric, predicates)
        assert sorted(result.oids()) == expected

    def test_three_predicates(self, setup):
        data, tree, _model, rng = setup
        predicates = [(rng.random(5), 0.4) for _ in range(3)]
        and_result = tree.complex_range_query(predicates, mode="and")
        or_result = tree.complex_range_query(predicates, mode="or")
        assert set(and_result.oids()) <= set(or_result.oids())

    def test_single_predicate_equals_range(self, setup):
        data, tree, _model, rng = setup
        query = rng.random(5)
        plain = tree.range_query(query, 0.3)
        complex_result = tree.complex_range_query([(query, 0.3)], mode="and")
        assert sorted(plain.oids()) == sorted(complex_result.oids())

    def test_distance_accounting(self, setup):
        """p predicates cost p distances per scanned entry."""
        data, tree, _model, rng = setup
        query = rng.random(5)
        predicates = [(query, 0.3), (query, 0.3)]
        single = tree.range_query(query, 0.3)
        double = tree.complex_range_query(predicates, mode="and")
        # Same query twice: same nodes accessed, double the distances.
        assert double.stats.nodes_accessed == single.stats.nodes_accessed
        assert double.stats.dists_computed == 2 * single.stats.dists_computed

    def test_and_prunes_more_than_or(self, setup):
        data, tree, _model, rng = setup
        predicates = [(rng.random(5), 0.25), (rng.random(5), 0.25)]
        and_result = tree.complex_range_query(predicates, mode="and")
        or_result = tree.complex_range_query(predicates, mode="or")
        assert (
            and_result.stats.nodes_accessed <= or_result.stats.nodes_accessed
        )

    def test_validation(self, setup):
        _data, tree, _model, rng = setup
        query = rng.random(5)
        with pytest.raises(InvalidParameterError):
            tree.complex_range_query([(query, 0.1)], mode="xor")
        with pytest.raises(InvalidParameterError):
            tree.complex_range_query([], mode="and")
        with pytest.raises(InvalidParameterError):
            tree.complex_range_query([(query, -0.1)], mode="and")


class TestComplexCostModel:
    def test_single_predicate_reduces_to_nmcm(self, setup):
        data, tree, model, _rng = setup
        from repro.core import NodeBasedCostModel

        hist = model.hist
        nmcm = NodeBasedCostModel(
            hist, collect_node_stats(tree, data.d_plus), data.size
        )
        estimate = model.and_costs([0.3])
        assert estimate.nodes == pytest.approx(float(nmcm.range_nodes(0.3)))
        assert estimate.dists == pytest.approx(float(nmcm.range_dists(0.3)))
        assert estimate.objs == pytest.approx(float(nmcm.range_objs(0.3)))

    def test_hand_computed_probabilities(self):
        hist = DistanceHistogram.uniform(100, 1.0)
        stats = [NodeStat(radius=0.2, n_entries=4, level=1)]
        model = ComplexRangeCostModel(hist, stats, n_objects=4)
        # AND: F(0.2+0.1) * F(0.2+0.3) = 0.3 * 0.5 = 0.15
        estimate = model.and_costs([0.1, 0.3])
        assert estimate.nodes == pytest.approx(0.15)
        assert estimate.dists == pytest.approx(2 * 4 * 0.15)
        # OR: 1 - 0.7*0.5 = 0.65
        estimate_or = model.or_costs([0.1, 0.3])
        assert estimate_or.nodes == pytest.approx(0.65)
        # selectivity: AND = 0.1*0.3 = 0.03 -> 0.12 objs of n=4
        assert estimate.objs == pytest.approx(4 * 0.03)
        assert estimate_or.objs == pytest.approx(4 * (1 - 0.9 * 0.7))

    def test_and_below_or(self, setup):
        _data, _tree, model, _rng = setup
        radii = [0.25, 0.3]
        assert model.and_costs(radii).nodes <= model.or_costs(radii).nodes
        assert model.and_costs(radii).objs <= model.or_costs(radii).objs

    def test_tracks_actual_on_independent_uniform_queries(self, setup):
        """On uniform data with independent query objects the independence
        approximation should land in a reasonable band."""
        data, tree, model, _rng = setup
        rng = np.random.default_rng(9)
        radii = [0.45, 0.5]
        nodes_sum, dists_sum, objs_sum = 0, 0, 0
        n_queries = 40
        for _ in range(n_queries):
            predicates = [
                (rng.random(5), radii[0]),
                (rng.random(5), radii[1]),
            ]
            result = tree.complex_range_query(predicates, mode="and")
            nodes_sum += result.stats.nodes_accessed
            dists_sum += result.stats.dists_computed
            objs_sum += len(result)
        estimate = model.and_costs(radii)
        assert estimate.nodes == pytest.approx(
            nodes_sum / n_queries, rel=0.5
        )
        assert estimate.dists == pytest.approx(
            dists_sum / n_queries, rel=0.5
        )

    def test_validation(self, setup):
        _data, _tree, model, _rng = setup
        with pytest.raises(InvalidParameterError):
            model.costs([0.1], mode="nand")
        with pytest.raises(InvalidParameterError):
            model.costs([], mode="and")
        with pytest.raises(InvalidParameterError):
            model.costs([-0.1], mode="and")
        with pytest.raises(InvalidParameterError):
            model.costs([0.1, float("nan")], mode="and")
        hist = DistanceHistogram.uniform(10, 1.0)
        with pytest.raises(InvalidParameterError):
            ComplexRangeCostModel(hist, [], 10)
        with pytest.raises(InvalidParameterError):
            ComplexRangeCostModel(
                hist, [NodeStat(radius=0.1, n_entries=1, level=1)], 0
            )
