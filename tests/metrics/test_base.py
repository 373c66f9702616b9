"""Tests for the metric base classes: counting wrapper, function adapter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.metrics import (
    CountingMetric,
    EditDistance,
    FunctionMetric,
    HammingDistance,
    JaccardDistance,
    L2,
)


class TestFunctionMetric:
    def test_wraps_callable(self):
        metric = FunctionMetric(lambda a, b: abs(a - b), name="absdiff")
        assert metric.distance(3, 7) == 4.0
        assert metric.name == "absdiff"
        assert metric(1, 2) == 1.0

    def test_generic_pairwise(self):
        metric = FunctionMetric(lambda a, b: abs(a - b))
        matrix = metric.pairwise([0, 1, 2], [0, 10])
        assert matrix.shape == (3, 2)
        assert matrix[2, 1] == 8.0

    def test_generic_rowwise(self):
        metric = FunctionMetric(lambda a, b: abs(a - b))
        vec = metric.rowwise([1, 2, 3], [3, 2, 1])
        assert list(vec) == [2.0, 0.0, 2.0]

    def test_rowwise_length_mismatch(self):
        metric = FunctionMetric(lambda a, b: abs(a - b))
        with pytest.raises(ValueError):
            metric.rowwise([1, 2], [1])


class TestCountingMetric:
    def test_counts_scalar_calls(self):
        counting = CountingMetric(L2())
        counting.distance([0, 0], [1, 1])
        counting.distance([0, 0], [2, 2])
        assert counting.calls == 2

    def test_counts_bulk_calls_elementwise(self, rng):
        counting = CountingMetric(L2())
        xs = rng.normal(size=(3, 2))
        ys = rng.normal(size=(5, 2))
        counting.pairwise(xs, ys)
        assert counting.calls == 15
        counting.one_to_many(xs[0], ys)
        assert counting.calls == 20
        counting.rowwise(xs, xs)
        assert counting.calls == 23

    def test_reset(self):
        counting = CountingMetric(L2())
        counting.distance([0], [1])
        counting.reset()
        assert counting.calls == 0

    def test_values_pass_through(self, rng):
        inner = L2()
        counting = CountingMetric(inner)
        a, b = rng.normal(size=2), rng.normal(size=2)
        assert counting.distance(a, b) == inner.distance(a, b)
        np.testing.assert_allclose(
            counting.one_to_many(a, [b, a]), inner.one_to_many(a, [b, a])
        )

    def test_name_reflects_inner(self):
        assert CountingMetric(L2()).name == "counting(L2)"


class TestBoundedValidation:
    """A negative or NaN bound is rejected by every metric, not answered
    with an all-``inf`` vector."""

    CASES = [
        (L2(), [0.0, 0.0], [[1.0, 1.0]]),
        (EditDistance(), "abc", ["abd"]),
        (HammingDistance(), [0, 1], [[0, 0]]),
        (JaccardDistance(), frozenset({1}), [frozenset({2})]),
        (FunctionMetric(lambda a, b: abs(a - b)), 0.0, [1.0]),
        (CountingMetric(L2()), [0.0, 0.0], [[1.0, 1.0]]),
    ]

    @pytest.mark.parametrize("bound", [float("nan"), -1.0])
    @pytest.mark.parametrize(
        "metric,x,ys", CASES, ids=[case[0].name for case in CASES]
    )
    def test_invalid_bound_rejected(self, metric, x, ys, bound):
        with pytest.raises(InvalidParameterError):
            metric.one_to_many_bounded(x, ys, bound)

    def test_counting_metric_counts_nothing_on_rejection(self):
        counting = CountingMetric(L2())
        with pytest.raises(InvalidParameterError):
            counting.one_to_many_bounded([0.0], [[1.0], [2.0]], float("nan"))
        assert counting.calls == 0

    def test_default_encode_is_a_list_and_counting_forwards(self):
        ys = [[1.0, 2.0], [3.0, 4.0]]
        assert FunctionMetric(lambda a, b: 0.0).encode(ys) == ys
        block = CountingMetric(L2()).encode(ys)
        assert np.array_equal(block, L2().encode(ys))
