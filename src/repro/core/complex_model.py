"""Cost model for complex similarity queries (§6, bullet 3).

The paper plans to "extend our cost model to deal with 'complex'
similarity queries — queries consisting of more than one similarity
predicate" (their EDBT'98 work defines the query language).  This module
provides that extension for conjunctions and disjunctions of range
predicates over a single metric.

Under Assumption 1 plus an independence approximation between predicates
(reasonable for query objects drawn independently), a node with covering
radius ``r(N)`` is accessed by

* ``AND``:  ``prod_i F(r(N) + r_i)`` — its region must intersect *every*
  query ball;
* ``OR``:   ``1 - prod_i (1 - F(r(N) + r_i))`` — at least one.

Distance computations follow the footnote-2 convention: every entry of an
accessed node pays one distance *per predicate* (the tree's
``complex_range_query`` evaluates all predicates without short-circuit,
matching this).  Result cardinality is ``n * prod_i F(r_i)`` (AND) or
``n * (1 - prod_i (1 - F(r_i)))`` (OR).

The independence approximation is exact when predicates' query objects are
independent draws from ``S``; correlated predicates (e.g. two balls around
nearly the same object) make AND estimates pessimistic — quantified by the
extension bench.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import InvalidParameterError
from .histogram import DistanceHistogram
from .mtree_model import NodeStat, RangeCostEstimate

__all__ = ["ComplexRangeCostModel"]


class ComplexRangeCostModel:
    """Expected costs of AND/OR combinations of range predicates."""

    def __init__(
        self,
        hist: DistanceHistogram,
        node_stats: Sequence[NodeStat],
        n_objects: int,
    ):
        if n_objects < 1:
            raise InvalidParameterError(
                f"n_objects must be >= 1, got {n_objects}"
            )
        if not node_stats:
            raise InvalidParameterError("node_stats must not be empty")
        self.hist = hist
        self.n_objects = int(n_objects)
        self._radii = np.array([s.radius for s in node_stats], dtype=np.float64)
        self._entries = np.array(
            [s.n_entries for s in node_stats], dtype=np.float64
        )

    def _access_probs(self, radii: Sequence[float], mode: str) -> np.ndarray:
        if mode not in ("and", "or"):
            raise InvalidParameterError(
                f"mode must be 'and' or 'or', got {mode!r}"
            )
        if not radii:
            raise InvalidParameterError("need at least one predicate radius")
        for radius in radii:
            if not (radius >= 0):
                raise InvalidParameterError(
                    f"radius must be >= 0, got {radius}"
                )
        # per-node probability per predicate: F(r(N) + r_i)
        probs = np.stack(
            [
                np.asarray(self.hist.cdf(self._radii + radius))
                for radius in radii
            ]
        )  # (p, M)
        if mode == "and":
            return probs.prod(axis=0)
        return 1.0 - (1.0 - probs).prod(axis=0)

    def _selectivity(self, radii: Sequence[float], mode: str) -> float:
        point_probs = np.array(
            [float(self.hist.cdf(radius)) for radius in radii]
        )
        if mode == "and":
            return float(point_probs.prod())
        return float(1.0 - (1.0 - point_probs).prod())

    def costs(
        self, radii: Sequence[float], mode: str = "and"
    ) -> RangeCostEstimate:
        """Expected nodes / dists / objs for the complex query.

        ``dists`` counts one computation per predicate per scanned entry,
        matching :meth:`repro.mtree.MTree.complex_range_query`.
        """
        access = self._access_probs(radii, mode)
        nodes = float(access.sum())
        dists = float(len(radii) * (self._entries * access).sum())
        objs = self.n_objects * self._selectivity(radii, mode)
        return RangeCostEstimate(nodes=nodes, dists=dists, objs=objs)

    def and_costs(self, radii: Sequence[float]) -> RangeCostEstimate:
        """Costs of the conjunctive query."""
        return self.costs(radii, mode="and")

    def or_costs(self, radii: Sequence[float]) -> RangeCostEstimate:
        """Costs of the disjunctive query."""
        return self.costs(radii, mode="or")
