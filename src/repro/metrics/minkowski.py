"""Minkowski (``L_p``) metrics on real vectors.

The paper's synthetic experiments use ``L_inf`` on the unit hypercube
(Table 1); the BRM-space examples also mention ``L_1`` ("diamonds"),
``L_2`` (circles) and ``L_inf`` (squares) balls.  All of them are instances
of :class:`MinkowskiMetric`, whose batch methods go through
``repro.metrics.kernels`` — the GIL-releasing C extension when built,
vectorised numpy otherwise.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..exceptions import InvalidParameterError
from . import kernels
from .base import Metric
from .kernels import fallback
from .kernels.encode import as_f64_matrix

__all__ = [
    "MinkowskiMetric",
    "L1",
    "L2",
    "LInf",
    "euclidean",
    "manhattan",
    "chebyshev",
]


class MinkowskiMetric(Metric):
    """The ``L_p`` metric ``d(x, y) = (sum_i |x_i - y_i|^p)^(1/p)``.

    ``p`` may be any real ``>= 1`` or ``math.inf`` for the Chebyshev
    (maximum-coordinate) metric.  Values of ``p < 1`` are rejected because
    they violate the triangle inequality.
    """

    def __init__(self, p: float):
        if not (p >= 1.0):
            raise InvalidParameterError(f"L_p requires p >= 1, got {p!r}")
        self.p = float(p)
        self.name = "Linf" if math.isinf(self.p) else f"L{self.p:g}"

    def distance(self, a, b) -> float:
        x = np.asarray(a, dtype=np.float64)
        y = np.asarray(b, dtype=np.float64)
        diff = np.subtract(x, y)
        if math.isinf(self.p):  # a maximum does not depend on the order
            return float(np.abs(diff).max(initial=0.0))
        # A sum does: the kernels' reduction, so a distance computed here
        # (say, an inserted object's parent distance) equals the one a
        # search computes for the same pair.  numpy's L1/L2 sums are
        # bit-equal to the native ones; its powers are not always equal
        # to the C pow, so other p sum on the active backend.
        if self.p in (1.0, 2.0) or kernels.active_backend() == "numpy":
            return float(fallback.minkowski_norms(diff.reshape(1, -1), self.p)[0])
        return float(self.one_to_many(x, y.reshape(1, -1))[0])

    def pairwise(self, xs: Sequence, ys: Sequence) -> np.ndarray:
        return kernels.minkowski_pairwise(xs, ys, self.p)

    def one_to_many(self, x, ys: Sequence) -> np.ndarray:
        return kernels.minkowski_one_to_many(x, ys, self.p)

    def encode(self, ys: Sequence) -> np.ndarray:
        """``ys`` as a read-only C-contiguous ``(n, d)`` float64 matrix.

        The kernels take such a matrix as it is, so a caller that keeps
        the block skips the per-call repacking of a list of vectors.
        The block never aliases ``ys``: freezing it cannot affect the
        caller's array, and later writes to ``ys`` cannot reach it.
        """
        block = as_f64_matrix(ys)
        if block is ys or block.base is not None:  # a view of ys's buffer
            block = block.copy()
        block.flags.writeable = False
        return block

    def join(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """The blocks' rows stacked into one read-only matrix (one
        non-empty block is returned as is)."""
        parts = [block for block in blocks if len(block)]
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return self.encode([])
        block = np.concatenate(parts)
        block.flags.writeable = False
        return block

    def take(self, block: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """The block's rows at ``indices``, as a new read-only block."""
        picked = block[indices]
        picked.flags.writeable = False
        return picked

    def rowwise(self, xs: Sequence, ys: Sequence) -> np.ndarray:
        return kernels.minkowski_rowwise(xs, ys, self.p)

    def unit_cube_diameter(self, dim: int) -> float:
        """Return ``d_plus`` for the unit hypercube ``[0, 1]^dim``."""
        if dim < 1:
            raise InvalidParameterError(f"dimension must be >= 1, got {dim}")
        if math.isinf(self.p):
            return 1.0
        return float(dim ** (1.0 / self.p))


def L1() -> MinkowskiMetric:
    """Manhattan metric (``p = 1``)."""
    return MinkowskiMetric(1.0)


def L2() -> MinkowskiMetric:
    """Euclidean metric (``p = 2``)."""
    return MinkowskiMetric(2.0)


def LInf() -> MinkowskiMetric:
    """Chebyshev / maximum-coordinate metric (``p = inf``)."""
    return MinkowskiMetric(math.inf)


# Aliases matching common naming.
euclidean = L2
manhattan = L1
chebyshev = LInf
