"""Unit and property tests for the Minkowski (L_p) metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.exceptions import InvalidParameterError
from repro.metrics import L1, L2, LInf, MinkowskiMetric, kernels

finite_vectors = arrays(
    np.float64,
    st.integers(min_value=1, max_value=6).map(lambda n: (n,)),
    elements=st.floats(-100, 100, allow_nan=False),
)


def paired_vectors(count):
    """Vectors of a shared dimension."""
    return st.integers(min_value=1, max_value=6).flatmap(
        lambda dim: st.tuples(
            *(
                arrays(
                    np.float64,
                    (dim,),
                    elements=st.floats(-50, 50, allow_nan=False),
                )
                for _ in range(count)
            )
        )
    )


class TestKnownValues:
    def test_l1_known(self):
        assert L1().distance([0, 0], [3, 4]) == pytest.approx(7.0)

    def test_l2_known(self):
        assert L2().distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_linf_known(self):
        assert LInf().distance([0, 0], [3, 4]) == pytest.approx(4.0)

    def test_l3_known(self):
        metric = MinkowskiMetric(3.0)
        assert metric.distance([0], [2]) == pytest.approx(2.0)
        assert metric.distance([0, 0], [1, 1]) == pytest.approx(2 ** (1 / 3))

    def test_identical_points(self):
        for metric in (L1(), L2(), LInf(), MinkowskiMetric(2.5)):
            assert metric.distance([1.5, -2.5], [1.5, -2.5]) == 0.0

    def test_names(self):
        assert L1().name == "L1"
        assert L2().name == "L2"
        assert LInf().name == "Linf"


class TestValidation:
    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0, float("nan")])
    def test_invalid_p_rejected(self, p):
        with pytest.raises(InvalidParameterError):
            MinkowskiMetric(p)

    def test_unit_cube_diameter(self):
        assert LInf().unit_cube_diameter(17) == 1.0
        assert L1().unit_cube_diameter(4) == pytest.approx(4.0)
        assert L2().unit_cube_diameter(9) == pytest.approx(3.0)

    def test_unit_cube_diameter_invalid_dim(self):
        with pytest.raises(InvalidParameterError):
            L2().unit_cube_diameter(0)

    def test_rowwise_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            L2().rowwise(np.zeros((3, 2)), np.zeros((2, 2)))


BACKENDS = [
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not kernels.native_available(), reason="extension not built"
        ),
    ),
    "numpy",
    "scalar",
]


class TestEmptySide:
    """A batch with no vectors on one side is an empty result, not a
    dimension mismatch."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_to_many_empty(self, backend):
        with kernels.use_backend(backend):
            out = LInf().one_to_many([0.1, 0.2], [])
        assert out.shape == (0,)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pairwise_empty_either_side(self, backend):
        with kernels.use_backend(backend):
            assert L2().pairwise([], [[0.1, 0.2], [0.3, 0.4]]).shape == (0, 2)
            assert L2().pairwise([[0.1, 0.2]], []).shape == (1, 0)
            assert L1().pairwise([], []).shape == (0, 0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rowwise_empty(self, backend):
        with kernels.use_backend(backend):
            assert L2().rowwise([], []).shape == (0,)
            with pytest.raises(InvalidParameterError):
                L2().rowwise([], [[0.1, 0.2]])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_encode_empty_block(self, backend):
        block = LInf().encode([])
        assert len(block) == 0
        with kernels.use_backend(backend):
            assert LInf().one_to_many([0.1, 0.2], block).shape == (0,)
            assert LInf().one_to_many_bounded([0.1, 0.2], block, 1.0).shape == (0,)


class TestEncode:
    def test_block_is_read_only_float64_matrix(self):
        block = L2().encode([[1, 2], [3, 4], [5, 6]])
        assert block.dtype == np.float64
        assert block.shape == (3, 2)
        assert block.flags.c_contiguous
        assert not block.flags.writeable

    def test_block_never_aliases_the_input(self):
        ys = np.zeros((4, 3))
        block = L2().encode(ys)
        assert ys.flags.writeable
        ys[0, 0] = 5.0
        assert block[0, 0] == 0.0

    def test_kernels_take_the_block_without_a_copy(self):
        block = L2().encode([[1.0, 2.0], [3.0, 4.0]])
        assert kernels.encode.as_f64_matrix(block) is block


class TestBulkConsistency:
    """pairwise / one_to_many / rowwise must agree with distance()."""

    @pytest.mark.parametrize(
        "metric", [L1(), L2(), LInf(), MinkowskiMetric(3.0)]
    )
    def test_pairwise_matches_scalar(self, metric, rng):
        xs = rng.normal(size=(5, 3))
        ys = rng.normal(size=(4, 3))
        matrix = metric.pairwise(xs, ys)
        for i in range(5):
            for j in range(4):
                assert matrix[i, j] == pytest.approx(
                    metric.distance(xs[i], ys[j])
                )

    @pytest.mark.parametrize(
        "metric", [L1(), L2(), LInf(), MinkowskiMetric(4.0)]
    )
    def test_one_to_many_matches_scalar(self, metric, rng):
        x = rng.normal(size=3)
        ys = rng.normal(size=(6, 3))
        vec = metric.one_to_many(x, ys)
        for j in range(6):
            assert vec[j] == pytest.approx(metric.distance(x, ys[j]))

    @pytest.mark.parametrize("metric", [L1(), L2(), LInf()])
    def test_rowwise_matches_scalar(self, metric, rng):
        xs = rng.normal(size=(6, 3))
        ys = rng.normal(size=(6, 3))
        vec = metric.rowwise(xs, ys)
        for j in range(6):
            assert vec[j] == pytest.approx(metric.distance(xs[j], ys[j]))


class TestMetricAxioms:
    @given(paired_vectors(2))
    def test_symmetry(self, pair):
        a, b = pair
        for metric in (L1(), L2(), LInf()):
            assert metric.distance(a, b) == pytest.approx(
                metric.distance(b, a)
            )

    @given(paired_vectors(2))
    def test_non_negativity_and_identity(self, pair):
        a, b = pair
        for metric in (L1(), L2(), LInf()):
            assert metric.distance(a, b) >= 0.0
            assert metric.distance(a, a) == 0.0

    @given(paired_vectors(3))
    def test_triangle_inequality(self, triple):
        a, b, c = triple
        for metric in (L1(), L2(), LInf(), MinkowskiMetric(3.0)):
            d_ab = metric.distance(a, b)
            d_ac = metric.distance(a, c)
            d_cb = metric.distance(c, b)
            assert d_ab <= d_ac + d_cb + 1e-9 * (1 + d_ac + d_cb)

    @given(paired_vectors(2))
    def test_lp_ordering(self, pair):
        """L_inf <= L_2 <= L_1 pointwise."""
        a, b = pair
        assert LInf().distance(a, b) <= L2().distance(a, b) + 1e-12
        assert L2().distance(a, b) <= L1().distance(a, b) + 1e-12
