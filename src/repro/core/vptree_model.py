"""The vp-tree cost model of Section 5.

Predicts the expected number of distance computations (= accessed nodes;
``e(N) = 1`` in a vp-tree) for a range query, using only the overall
distance distribution ``F`` — the tree never has to be built:

* cutoff values are estimated as quantiles, ``mu_i = F^{-1}(i/m)``
  (homogeneity assumption);
* the i-th child of a node is accessed iff
  ``mu_{i-1} - r_Q < d(Q, O_v) <= mu_i + r_Q``, which under Assumption 1
  has probability ``F(mu_i + r_Q) - F(mu_{i-1} - r_Q)`` (Eqs. 19-20);
* descending into child ``i``, the triangle inequality caps intra-subtree
  distances at ``2 mu_i``, so the distribution is renormalised to that
  bound (Eq. 22) before the argument repeats one level down (Eq. 23).

The total expected cost sums access probabilities over every (virtual)
node — the product of the conditional probabilities along its path.  The
recursion below carries the truncated distribution down each path and
visits each virtual node once, so the cost is ``O(n)`` model evaluations
for an ``n``-object tree.  An optional memo table collapses calls that see
(numerically) the same bound and subtree size, which is common near the
leaves.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import InvalidParameterError
from .histogram import DistanceHistogram

__all__ = ["VPTreeCostModel", "vp_root_children_accessed"]


def _subtree_sizes(n_rest: int, arity: int) -> List[int]:
    """Equal-cardinality group sizes, matching the builder's partition."""
    return [
        (n_rest * (i + 1)) // arity - (n_rest * i) // arity
        for i in range(arity)
    ]


def vp_root_children_accessed(
    hist: DistanceHistogram, arity: int, radius: float
) -> float:
    """Eq. 21: expected number of the root's children accessed by a range
    query, with cutoffs at the ``i/m`` quantiles of ``F``."""
    if arity < 2:
        raise InvalidParameterError(f"arity must be >= 2, got {arity}")
    if not (radius >= 0):
        raise InvalidParameterError(f"radius must be >= 0, got {radius}")
    total = 0.0
    for i in range(1, arity + 1):
        upper = (
            hist.d_plus if i == arity else float(hist.quantile(i / arity))
        )
        lower = 0.0 if i == 1 else float(hist.quantile((i - 1) / arity))
        probability = float(hist.cdf(upper + radius)) - float(
            hist.cdf(lower - radius)
        )
        total += min(max(probability, 0.0), 1.0)
    return total


class VPTreeCostModel:
    """Expected range-query distance computations for an m-way vp-tree."""

    def __init__(
        self,
        hist: DistanceHistogram,
        n_objects: int,
        arity: int = 2,
        memoize: bool = True,
    ):
        if n_objects < 1:
            raise InvalidParameterError(
                f"n_objects must be >= 1, got {n_objects}"
            )
        if arity < 2:
            raise InvalidParameterError(f"arity must be >= 2, got {arity}")
        self.hist = hist
        self.n_objects = int(n_objects)
        self.arity = int(arity)
        self.memoize = bool(memoize)

    def range_dists(self, radius: float) -> float:
        """Expected distance computations for ``range(Q, radius)``.

        Equals the expected number of accessed nodes (``e(N) = 1``).
        """
        if not (radius >= 0):
            raise InvalidParameterError(f"radius must be >= 0, got {radius}")
        memo: Optional[Dict[Tuple[float, int], float]] = (
            {} if self.memoize else None
        )
        return self._expected_accesses(self.hist, self.n_objects, radius, memo)

    def range_dists_curve(self, radii: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`range_dists` over a radius grid."""
        return np.array([self.range_dists(float(r)) for r in radii])

    def nn_dists(self, k: int = 1, quantile_points: int = 16) -> float:
        """Expected distance computations for ``NN(Q, k)``.

        The paper's footnote 3: "the extension to nearest neighbors
        queries follows the same principles" — i.e. integrate the range
        cost over the k-th-NN radius distribution, as Eqs. 17-18 do for
        the M-tree.  Since each :meth:`range_dists` evaluation recurses
        over the whole virtual tree, the integral uses quantile quadrature:
        the k-NN radius CDF ``P_{Q,k}`` is inverted at ``quantile_points``
        evenly spaced probability levels and the range costs at those radii
        are averaged — an exact expectation under the discretised radius
        distribution.
        """
        from .nn_distance import nn_distance_cdf

        if not (1 <= k <= self.n_objects):
            raise InvalidParameterError(
                f"k must lie in [1, n={self.n_objects}], got {k}"
            )
        if quantile_points < 1:
            raise InvalidParameterError(
                f"quantile_points must be >= 1, got {quantile_points}"
            )
        grid = self.hist.integration_grid(8)
        cdf_vals = np.asarray(
            nn_distance_cdf(self.hist, self.n_objects, k, grid)
        )
        levels = (np.arange(quantile_points) + 0.5) / quantile_points
        radii = np.interp(levels, cdf_vals, grid)
        costs = [self.range_dists(float(r)) for r in radii]
        return float(np.mean(costs))

    def _expected_accesses(
        self,
        hist: DistanceHistogram,
        n: int,
        radius: float,
        memo: Optional[Dict[Tuple[float, int], float]],
    ) -> float:
        """Expected accessed nodes in a subtree of ``n`` objects whose
        distances follow ``hist``, *given that the subtree's root is
        accessed*."""
        if n <= 0:
            return 0.0
        if n == 1:
            return 1.0
        key = (round(hist.d_plus, 9), n)
        if memo is not None and key in memo:
            return memo[key]
        total = 1.0  # this node's vantage point
        sizes = _subtree_sizes(n - 1, self.arity)
        for i in range(1, self.arity + 1):
            size = sizes[i - 1]
            if size == 0:
                continue
            upper = (
                hist.d_plus
                if i == self.arity
                else float(hist.quantile(i / self.arity))
            )
            lower = (
                0.0 if i == 1 else float(hist.quantile((i - 1) / self.arity))
            )
            access_prob = float(hist.cdf(upper + radius)) - float(
                hist.cdf(lower - radius)
            )
            access_prob = min(max(access_prob, 0.0), 1.0)
            if access_prob <= 0.0:
                continue
            # Eq. 22: inside child i the triangle inequality bounds
            # distances by 2 mu_i; renormalise the distribution.
            child_bound = min(2.0 * upper, hist.d_plus)
            if child_bound <= 0.0:
                # All children collapse onto the vantage point: each is a
                # chain of zero-distance nodes, all accessed.
                total += access_prob * size
                continue
            child_hist = hist.truncate(child_bound)
            total += access_prob * self._expected_accesses(
                child_hist, size, radius, memo
            )
        if memo is not None:
            memo[key] = total
        return total
