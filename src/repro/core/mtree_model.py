"""The M-tree cost models: N-MCM (node-based) and L-MCM (level-based).

Section 3 of the paper.  Both models consume only:

* the distance distribution ``F`` (a :class:`DistanceHistogram`), and
* statistics of the tree — per node ``(r(N_i), e(N_i))`` for N-MCM
  (Eqs. 5-7), or per level ``(M_l, r̄_l)`` for L-MCM (Eqs. 15-16).

Range queries
    ``nodes(range(Q, r_Q)) = Σ_i F(r(N_i) + r_Q)`` — each node is accessed
    iff its ball intersects the query ball, which by the triangle
    inequality happens iff ``d(Q, O_r) <= r(N) + r_Q``; under Assumption 1
    that probability is ``F(r(N) + r_Q)``.
    ``dists`` additionally weights each node by its entry count, and
    ``objs(range) = n * F(r_Q)`` estimates the result cardinality (Eq. 8).

k-NN queries
    Costs are range costs integrated over the k-th-NN radius density
    ``p_{Q,k}`` (the paper writes out ``k = 1``; we implement general ``k``,
    which reduces to the paper's formulas at ``k = 1``).  Two cheaper
    estimators from Section 4 are also provided: range at the expected NN
    distance (Eq. 14) and range at the minimum-selectivity radius ``r(k)``.

The root has no covering radius; following the paper's footnote 1 it is
assigned ``r = d_plus`` (so it is always accessed: ``F(d_plus + r_Q) = 1``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from ..exceptions import InvalidParameterError
from .histogram import DistanceHistogram
from .nn_distance import (
    expected_nn_distance,
    min_selectivity_radius,
    nn_distance_pdf_factor,
)

__all__ = [
    "NodeStat",
    "LevelStat",
    "RangeCostEstimate",
    "NNCostEstimate",
    "MTreeCostModel",
    "NodeBasedCostModel",
    "LevelBasedCostModel",
    "NN_METHODS",
]

ArrayLike = Union[float, Sequence[float], np.ndarray]


@dataclass(frozen=True)
class NodeStat:
    """Per-node statistics consumed by N-MCM.

    ``radius`` is the covering radius of the routing entry pointing at the
    node (``d_plus`` for the root); ``n_entries`` is the number of entries
    stored in the node; ``level`` is 1 for the root, L for leaves.
    """

    radius: float
    n_entries: int
    level: int


@dataclass(frozen=True)
class LevelStat:
    """Per-level statistics consumed by L-MCM: ``M_l`` and ``r̄_l``."""

    level: int
    n_nodes: int
    avg_radius: float


@dataclass(frozen=True)
class RangeCostEstimate:
    """Expected costs of one range query."""

    nodes: float  # expected node (page) reads        - I/O cost
    dists: float  # expected distance computations    - CPU cost
    objs: float  # expected number of retrieved objects


@dataclass(frozen=True)
class NNCostEstimate:
    """Expected costs of one k-NN query, plus the radius view used."""

    nodes: float
    dists: float
    expected_nn_distance: float
    method: str


class MTreeCostModel(ABC):
    """Common interface and NN machinery for N-MCM and L-MCM."""

    def __init__(self, hist: DistanceHistogram, n_objects: int):
        if n_objects < 1:
            raise InvalidParameterError(
                f"n_objects must be >= 1, got {n_objects}"
            )
        self.hist = hist
        self.n_objects = int(n_objects)

    # -- range queries --------------------------------------------------

    @abstractmethod
    def range_nodes(self, radius: ArrayLike) -> np.ndarray | float:
        """Expected node reads for ``range(Q, radius)``."""

    @abstractmethod
    def range_dists(self, radius: ArrayLike) -> np.ndarray | float:
        """Expected distance computations for ``range(Q, radius)``."""

    def range_objs(self, radius: ArrayLike) -> np.ndarray | float:
        """Eq. 8: expected result cardinality ``n * F(r_Q)``."""
        return self.n_objects * np.asarray(self.hist.cdf(radius))

    def range_costs(self, radius: float) -> RangeCostEstimate:
        """All three range-query estimates bundled."""
        return RangeCostEstimate(
            nodes=float(self.range_nodes(radius)),
            dists=float(self.range_dists(radius)),
            objs=float(self.range_objs(radius)),
        )

    # -- k-NN queries -----------------------------------------------------

    def nn_costs(
        self, k: int = 1, method: str = "integral", refinement: int = 8
    ) -> NNCostEstimate:
        """Expected costs for ``NN(Q, k)``.

        ``method`` selects the estimator compared in Figure 2:

        * ``"integral"`` — the L-MCM/N-MCM integral (Eqs. 17-18 and their
          node-based analogues): range costs weighted by ``p_{Q,k}(r)``;
        * ``"expected-radius"`` — range costs at ``E[nn_{Q,k}]`` (Eq. 11/14);
        * ``"min-selectivity"`` — range costs at
          ``r(k) = min{r : n F(r) >= k}`` (Eq. 8 inverted).
        """
        if method not in NN_METHODS:
            raise InvalidParameterError(
                f"unknown NN method {method!r}; choose from {sorted(NN_METHODS)}"
            )
        expected_radius = expected_nn_distance(
            self.hist, self.n_objects, k, refinement
        )
        if method == "integral":
            nodes, dists = self._nn_integral(k, refinement)
        elif method == "expected-radius":
            nodes = float(self.range_nodes(expected_radius))
            dists = float(self.range_dists(expected_radius))
        else:  # "min-selectivity"
            radius = min_selectivity_radius(self.hist, self.n_objects, k)
            nodes = float(self.range_nodes(radius))
            dists = float(self.range_dists(radius))
        return NNCostEstimate(
            nodes=nodes,
            dists=dists,
            expected_nn_distance=expected_radius,
            method=method,
        )

    def _nn_integral(self, k: int, refinement: int) -> tuple[float, float]:
        """``∫ cost(range(Q, r)) p_{Q,k}(r) dr`` by trapezoid quadrature.

        ``p_{Q,k}(r) = (dP/dF)(r) * f(r)``; both factors are evaluated on a
        grid refined within every histogram bin, where the piecewise forms
        are smooth.
        """
        grid = self.hist.integration_grid(refinement)
        density = np.asarray(self.hist.pdf(grid)) * np.asarray(
            nn_distance_pdf_factor(self.hist, self.n_objects, k, grid)
        )
        nodes_curve = np.asarray(self.range_nodes(grid), dtype=np.float64)
        dists_curve = np.asarray(self.range_dists(grid), dtype=np.float64)
        # The histogram density is piecewise constant with jumps at bin
        # edges; trapezoid over the refined grid integrates the product
        # exactly enough (the bench-validated error is << model error).
        nodes = float(np.trapezoid(nodes_curve * density, grid))
        dists = float(np.trapezoid(dists_curve * density, grid))
        # Normalise by the integral of the density itself: the histogram's
        # discretised p_{Q,k} may integrate to slightly less than 1.
        mass = float(np.trapezoid(density, grid))
        if mass > 0:
            nodes /= mass
            dists /= mass
        return nodes, dists


NN_METHODS = frozenset({"integral", "expected-radius", "min-selectivity"})


class NodeBasedCostModel(MTreeCostModel):
    """N-MCM: Eqs. 5-7, using one ``(radius, entries)`` pair per node.

    Keeps ``O(M)`` statistics; the most accurate of the two models (the
    paper reports relative errors within ~4% on the clustered datasets).
    """

    def __init__(
        self,
        hist: DistanceHistogram,
        node_stats: Sequence[NodeStat],
        n_objects: int,
    ):
        super().__init__(hist, n_objects)
        if not node_stats:
            raise InvalidParameterError("node_stats must not be empty")
        for stat in node_stats:
            if not (stat.radius >= 0):
                raise InvalidParameterError(
                    f"negative or NaN covering radius in stats: {stat!r}"
                )
            if stat.n_entries < 1:
                raise InvalidParameterError(
                    f"node with no entries in stats: {stat!r}"
                )
        self.node_stats = list(node_stats)
        self._radii = np.array([s.radius for s in node_stats], dtype=np.float64)
        self._entries = np.array(
            [s.n_entries for s in node_stats], dtype=np.float64
        )

    @property
    def n_nodes(self) -> int:
        return len(self.node_stats)

    def range_nodes(self, radius: ArrayLike) -> np.ndarray | float:
        r = np.asarray(radius, dtype=np.float64)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        # F(r(N_i) + r_Q) for every node x every radius, summed over nodes.
        probs = np.asarray(self.hist.cdf(self._radii[:, None] + r[None, :]))
        total = probs.sum(axis=0)
        return float(total[0]) if scalar else total

    def range_dists(self, radius: ArrayLike) -> np.ndarray | float:
        r = np.asarray(radius, dtype=np.float64)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        probs = np.asarray(self.hist.cdf(self._radii[:, None] + r[None, :]))
        total = (self._entries[:, None] * probs).sum(axis=0)
        return float(total[0]) if scalar else total


class LevelBasedCostModel(MTreeCostModel):
    """L-MCM: Eqs. 15-16, using only ``(M_l, r̄_l)`` per level.

    Keeps ``O(L)`` statistics (L = tree height).  Eq. 16 exploits the fact
    that the number of entries at level ``l`` equals the number of nodes at
    level ``l + 1``, with ``M_{L+1} := n``.
    """

    def __init__(
        self,
        hist: DistanceHistogram,
        level_stats: Sequence[LevelStat],
        n_objects: int,
    ):
        super().__init__(hist, n_objects)
        if not level_stats:
            raise InvalidParameterError("level_stats must not be empty")
        ordered = sorted(level_stats, key=lambda s: s.level)
        expected_levels = list(range(1, len(ordered) + 1))
        if [s.level for s in ordered] != expected_levels:
            raise InvalidParameterError(
                "level_stats must cover levels 1..L exactly once, got "
                f"{[s.level for s in ordered]}"
            )
        for stat in ordered:
            if stat.n_nodes < 1:
                raise InvalidParameterError(f"empty level in stats: {stat!r}")
            if not (stat.avg_radius >= 0):
                raise InvalidParameterError(
                    f"negative or NaN average radius in stats: {stat!r}"
                )
        self.level_stats = ordered
        self._level_nodes = np.array(
            [s.n_nodes for s in ordered], dtype=np.float64
        )
        self._level_radii = np.array(
            [s.avg_radius for s in ordered], dtype=np.float64
        )
        # M_{l+1} for l = 1..L: node counts shifted by one level, with
        # M_{L+1} = n (objects live in the leaves).
        self._next_level_nodes = np.append(
            self._level_nodes[1:], float(self.n_objects)
        )

    @property
    def height(self) -> int:
        return len(self.level_stats)

    def range_nodes(self, radius: ArrayLike) -> np.ndarray | float:
        r = np.asarray(radius, dtype=np.float64)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        probs = np.asarray(
            self.hist.cdf(self._level_radii[:, None] + r[None, :])
        )
        total = (self._level_nodes[:, None] * probs).sum(axis=0)
        return float(total[0]) if scalar else total

    def range_dists(self, radius: ArrayLike) -> np.ndarray | float:
        r = np.asarray(radius, dtype=np.float64)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        probs = np.asarray(
            self.hist.cdf(self._level_radii[:, None] + r[None, :])
        )
        total = (self._next_level_nodes[:, None] * probs).sum(axis=0)
        return float(total[0]) if scalar else total


def level_stats_from_node_stats(
    node_stats: Sequence[NodeStat],
) -> List[LevelStat]:
    """Aggregate per-node statistics into the per-level form L-MCM uses."""
    if not node_stats:
        raise InvalidParameterError("node_stats must not be empty")
    by_level: dict[int, list[NodeStat]] = {}
    for stat in node_stats:
        by_level.setdefault(stat.level, []).append(stat)
    levels = sorted(by_level)
    return [
        LevelStat(
            level=level,
            n_nodes=len(by_level[level]),
            avg_radius=float(
                np.mean([s.radius for s in by_level[level]])
            ),
        )
        for level in levels
    ]


__all__.append("level_stats_from_node_stats")
