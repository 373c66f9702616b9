"""A query-sensitive cost model from multiple viewpoints (§6, bullet 2).

The paper's second open problem: "For non-homogeneous spaces (HV << 1) our
model is not guaranteed to perform well.  This suggests an approach which
keeps several 'viewpoints', and properly combines them to predict query
costs.  This would allow a cost model based on query 'position' (relative
to the viewpoints) to be derived, thus being able to change estimates
depending on the specific query object."

Implementation — the *position-based* model sketched above:

* **Fit.** Draw ``m`` viewpoint objects via farthest-point traversal (so
  every mode of a clustered space gets one) and precompute the matrix
  ``D[i, N] = d(v_i, O_{r_N})`` of viewpoint-to-routing-object distances —
  ``m`` distances per tree node, stored once.
* **Predict.** For a query ``Q``, compute ``delta_i = d(Q, v_i)`` (``m``
  extra distance computations — the model's own overhead).  The triangle
  inequality pins each unknown query-to-node distance into the interval
  ``[|D[i,N] - delta_i|, D[i,N] + delta_i]``; modelling it as uniform on
  that interval gives a smooth per-node access probability

      Pr_i{node N accessed} = clamp((t_N - lo) / (hi - lo)),
      t_N = r(N) + r_Q

  which converges to the exact indicator as ``Q`` approaches ``v_i``.
  Estimates from the ``m`` viewpoints are combined with softmin weights in
  ``delta_i`` (nearer viewpoints pin the interval tighter, so they get the
  say).

Unlike the single-``F`` model, predictions move with the query object:
queries in a dense cluster see the cluster's node population, queries in
sparse regions see theirs.  The extension bench
(``bench_ext_viewpoints.py``) shows this beating the global model
per-query on a non-homogeneous bimodal space while matching it on
homogeneous data.

The module also keeps the simpler *RDD-blend* estimator (``blend_
histogram``), which approximates the query's RDD as a softmin-weighted
mixture of viewpoint RDDs and runs the standard machinery on it — useful
when node routing objects are unavailable (e.g. statistics shipped without
objects), but blind to node-location correlation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

import numpy as np

from ..exceptions import EmptyDatasetError, InvalidParameterError
from ..metrics import Metric
from .histogram import DistanceHistogram
from .mtree_model import RangeCostEstimate

__all__ = [
    "ViewpointSet",
    "fit_viewpoints",
    "NodeRecord",
    "QuerySensitiveCostModel",
]


@dataclass
class ViewpointSet:
    """Fitted viewpoints: objects plus their RDD histograms."""

    viewpoints: List[Any]
    rdds: List[DistanceHistogram]
    bandwidth: float

    @property
    def size(self) -> int:
        return len(self.viewpoints)


@dataclass(frozen=True)
class NodeRecord:
    """Node statistics *with* the routing object (position-aware N-MCM)."""

    obj: Any
    radius: float
    n_entries: int
    level: int


def fit_viewpoints(
    objects: Sequence[Any],
    metric: Metric,
    d_plus: float,
    n_viewpoints: int = 8,
    n_targets: int = 1000,
    n_bins: int = 100,
    rng: Optional[np.random.Generator] = None,
) -> ViewpointSet:
    """Draw spread-out viewpoints and estimate each one's RDD.

    Viewpoints are chosen greedily max-min (farthest-point traversal) from
    a random start, so they cover the space's modes — random selection can
    leave a cluster without a nearby viewpoint.
    """
    n = len(objects)
    if n < 2:
        raise EmptyDatasetError(f"need at least 2 objects, got {n}")
    if n_viewpoints < 1:
        raise InvalidParameterError(
            f"n_viewpoints must be >= 1, got {n_viewpoints}"
        )
    if n_targets < 2:
        raise InvalidParameterError(f"n_targets must be >= 2, got {n_targets}")
    rng = rng if rng is not None else np.random.default_rng(0)
    n_viewpoints = min(n_viewpoints, n)
    n_targets = min(n_targets, n)

    pool_size = min(n, max(200, 20 * n_viewpoints))
    pool_idx = rng.choice(n, size=pool_size, replace=False)
    pool = [objects[i] for i in pool_idx]
    chosen: List[int] = [int(rng.integers(0, pool_size))]
    min_dist = np.asarray(metric.one_to_many(pool[chosen[0]], pool))
    while len(chosen) < n_viewpoints:
        next_pos = int(np.argmax(min_dist))
        if min_dist[next_pos] <= 0 and len(chosen) > 1:
            break  # pool exhausted (duplicates)
        chosen.append(next_pos)
        dist_to_new = np.asarray(metric.one_to_many(pool[next_pos], pool))
        min_dist = np.minimum(min_dist, dist_to_new)
    viewpoints = [pool[i] for i in chosen]

    target_idx = rng.choice(n, size=n_targets, replace=False)
    targets = [objects[i] for i in target_idx]
    rdds = [
        DistanceHistogram.from_sample(
            np.asarray(metric.one_to_many(viewpoint, targets)), n_bins, d_plus
        )
        for viewpoint in viewpoints
    ]

    # Bandwidth: mean distance from a random object to its nearest
    # viewpoint — the scale below which "near a viewpoint" is meaningful.
    probe_idx = rng.choice(n, size=min(200, n), replace=False)
    probes = [objects[i] for i in probe_idx]
    nearest = np.full(len(probes), np.inf)
    for viewpoint in viewpoints:
        nearest = np.minimum(
            nearest, np.asarray(metric.one_to_many(viewpoint, probes))
        )
    bandwidth = float(np.mean(nearest))
    if bandwidth <= 0:
        bandwidth = d_plus / max(10, n_viewpoints)
    return ViewpointSet(viewpoints=viewpoints, rdds=rdds, bandwidth=bandwidth)


class QuerySensitiveCostModel:
    """Per-query M-tree cost prediction from query position.

    Needs the tree's :class:`NodeRecord` statistics (use
    :func:`repro.mtree.collect_node_records`); fit-time cost is
    ``m * M`` distance computations, prediction cost is ``m`` per query
    (``m`` = number of viewpoints, ``M`` = number of tree nodes).
    """

    def __init__(
        self,
        viewpoint_set: ViewpointSet,
        metric: Metric,
        n_objects: int,
        node_records: Sequence[NodeRecord],
    ):
        if viewpoint_set.size < 1:
            raise InvalidParameterError("viewpoint set is empty")
        if not node_records:
            raise InvalidParameterError("node_records must not be empty")
        if n_objects < 1:
            raise InvalidParameterError(
                f"n_objects must be >= 1, got {n_objects}"
            )
        self.viewpoint_set = viewpoint_set
        self.metric = metric
        self.n_objects = int(n_objects)
        self._radii = np.array(
            [record.radius for record in node_records], dtype=np.float64
        )
        self._entries = np.array(
            [record.n_entries for record in node_records], dtype=np.float64
        )
        # D[i, N] = d(v_i, routing object of node N)
        node_objs = [record.obj for record in node_records]
        self._viewpoint_to_node = np.stack(
            [
                np.asarray(self.metric.one_to_many(viewpoint, node_objs))
                for viewpoint in viewpoint_set.viewpoints
            ]
        )
        #: distance computations spent per prediction (model overhead)
        self.overhead_dists = viewpoint_set.size

    # -- position-based prediction ---------------------------------------

    def _access_probs(self, query: Any, radius: float) -> np.ndarray:
        """Per-node access probabilities for ``range(query, radius)``."""
        if not (radius >= 0):
            raise InvalidParameterError(f"radius must be >= 0, got {radius}")
        deltas = np.asarray(
            self.metric.one_to_many(query, self.viewpoint_set.viewpoints),
            dtype=np.float64,
        )
        # Softmin weights: tighter triangle intervals dominate.
        bandwidth = max(self.viewpoint_set.bandwidth, 1e-12)
        weights = np.exp(-(deltas - deltas.min()) / bandwidth)
        weights /= weights.sum()

        thresholds = self._radii + radius  # t_N per node
        probs = np.zeros_like(self._radii)
        for weight, delta, row in zip(weights, deltas, self._viewpoint_to_node):
            lower = np.abs(row - delta)
            upper = row + delta
            span = np.maximum(upper - lower, 1e-12)
            per_view = np.clip((thresholds - lower) / span, 0.0, 1.0)
            probs += weight * per_view
        return probs

    def range_costs(self, query: Any, radius: float) -> RangeCostEstimate:
        """Predicted costs of ``range(query, radius)`` for this query.

        Result cardinality uses the blended query RDD (Eq. 8 with ``F_Q``
        in place of ``F``).
        """
        probs = self._access_probs(query, radius)
        objs = self.n_objects * float(self.blend_histogram(query).cdf(radius))
        return RangeCostEstimate(
            nodes=float(probs.sum()),
            dists=float((self._entries * probs).sum()),
            objs=objs,
        )

    # -- RDD blending (secondary estimator) -------------------------------

    def blend_histogram(self, query: Any) -> DistanceHistogram:
        """The query's approximate RDD: softmin-weighted viewpoint blend."""
        vs = self.viewpoint_set
        distances = np.asarray(
            self.metric.one_to_many(query, vs.viewpoints), dtype=np.float64
        )
        scaled = -(distances - distances.min()) / max(vs.bandwidth, 1e-12)
        weights = np.exp(scaled)
        weights /= weights.sum()
        bins = np.zeros_like(vs.rdds[0].bin_probs)
        for weight, rdd in zip(weights, vs.rdds):
            bins += weight * rdd.bin_probs
        return DistanceHistogram(bins, vs.rdds[0].d_plus)

    def range_costs_via_blend(
        self, query: Any, radius: float
    ) -> RangeCostEstimate:
        """Range estimate using only the blended RDD (no node positions).

        Equivalent to running N-MCM with ``F_Q`` substituted for ``F`` —
        captures query-local selectivity but not node-location
        correlation; kept for comparison and for statistics shipped
        without routing objects.
        """
        if not (radius >= 0):
            raise InvalidParameterError(f"radius must be >= 0, got {radius}")
        hist = self.blend_histogram(query)
        probs = np.asarray(hist.cdf(self._radii + radius))
        return RangeCostEstimate(
            nodes=float(probs.sum()),
            dists=float((self._entries * probs).sum()),
            objs=self.n_objects * float(hist.cdf(radius)),
        )
