"""Tests for the node-size tuner (Section 4.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import NodeSizeTuner, estimate_distance_histogram
from repro.datasets import clustered_dataset
from repro.exceptions import InvalidParameterError
from repro.storage import DiskModel


@pytest.fixture(scope="module")
def tuner_setup():
    data = clustered_dataset(800, 5, seed=1)
    hist = estimate_distance_histogram(
        data.points, data.metric, data.d_plus, n_bins=50
    )
    tuner = NodeSizeTuner(
        data.points,
        data.metric,
        data.d_plus,
        object_bytes=20,
        hist=hist,
        disk_model=DiskModel(),
        seed=2,
    )
    return data, tuner


class TestSweep:
    def test_sweep_points(self, tuner_setup):
        _data, tuner = tuner_setup
        result = tuner.sweep([1.0, 4.0, 16.0], radius=0.15)
        assert len(result.points) == 3
        sizes = [p.node_size_kb for p in result.points]
        assert sizes == [1.0, 4.0, 16.0]
        assert result.optimal_node_size_kb in sizes

    def test_io_decreases_with_node_size(self, tuner_setup):
        """Figure 5(a): predicted node reads fall as pages grow."""
        _data, tuner = tuner_setup
        result = tuner.sweep([0.5, 2.0, 8.0, 32.0], radius=0.15)
        nodes = [p.predicted_nodes for p in result.points]
        assert nodes == sorted(nodes, reverse=True)

    def test_cpu_grows_for_large_nodes(self, tuner_setup):
        """The right side of Figure 5(a)'s U: big nodes scan more entries."""
        _data, tuner = tuner_setup
        result = tuner.sweep([4.0, 32.0], radius=0.15)
        assert result.points[1].predicted_dists > result.points[0].predicted_dists

    def test_optimum_minimises_predicted_cost(self, tuner_setup):
        _data, tuner = tuner_setup
        result = tuner.sweep([1.0, 4.0, 16.0], radius=0.15)
        best = min(result.points, key=lambda p: p.predicted_total_ms)
        assert result.optimal_node_size_kb == best.node_size_kb

    def test_actual_measurements_recorded(self, tuner_setup):
        data, tuner = tuner_setup
        queries = data.points[:10]
        result = tuner.sweep([2.0, 8.0], radius=0.15, queries=queries)
        for point in result.points:
            assert point.actual_nodes is not None
            assert point.actual_dists is not None
            assert point.actual_total_ms is not None
            # Prediction and measurement must be the same order of magnitude.
            assert point.actual_total_ms == pytest.approx(
                point.predicted_total_ms, rel=1.0
            )

    def test_predicted_curve(self, tuner_setup):
        _data, tuner = tuner_setup
        result = tuner.sweep([1.0, 8.0], radius=0.1)
        curve = result.predicted_curve()
        assert curve.shape == (2,)
        assert (curve > 0).all()

    def test_invalid_inputs(self, tuner_setup):
        _data, tuner = tuner_setup
        with pytest.raises(InvalidParameterError):
            tuner.sweep([], radius=0.1)
        with pytest.raises(InvalidParameterError):
            tuner.sweep([4.0], radius=-0.1)
        with pytest.raises(InvalidParameterError):
            tuner.sweep([4.0], radius=float("nan"))

    def test_too_few_objects_rejected(self, tuner_setup):
        data, _tuner = tuner_setup
        hist = estimate_distance_histogram(
            data.points, data.metric, data.d_plus, n_bins=10
        )
        with pytest.raises(InvalidParameterError):
            NodeSizeTuner(
                data.points[:1], data.metric, data.d_plus, 20, hist
            )
