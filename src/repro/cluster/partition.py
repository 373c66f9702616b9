"""Pivot-based partitioning: split a dataset into shards with statistics.

The paper's central artifact — per-viewpoint relative distance
distributions (§2) — becomes a *routing* feature the moment the dataset
is sharded: every shard keeps the exact distances between its pivot and
its members (computed once at partition time, the CMT idea of never
throwing a distance away, arXiv 2112.10900), and those distances serve
two masters:

1. **Certified pruning.**  By the triangle inequality, an object ``o``
   in shard ``i`` can satisfy ``d(q, o) <= r`` only if its stored pivot
   distance ``t = d(o, p_i)`` lies in the annulus
   ``[d(q, p_i) - r, d(q, p_i) + r]``.  :meth:`ShardStats.candidate_count`
   counts members in that annulus by binary search over the sorted exact
   distances — a count of **zero is a proof** that the shard cannot
   contribute, so the router may skip it entirely (both a latency win
   and the correct degraded behaviour when the shard is down).

2. **Cost-model routing.**  The same distances, binned into a per-shard
   RDD histogram (:func:`repro.core.partition_rdd_histograms`), give the
   *expected* contribution ``n_i * (F_i(d+r) - F_i(d-r))`` — the paper's
   distance-distribution machinery applied per partition, used to rank
   shards under load.

Pivots are chosen by farthest-first traversal (Gonzalez), which bounds
every shard's covering radius within twice the optimum; objects go to
their nearest pivot.  Every distance computed during partitioning is
counted in :attr:`Partition.dists_computed` so the accounting stays
exact end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

import numpy as np

from ..core import partition_rdd_histograms
from ..core.histogram import DistanceHistogram
from ..exceptions import EmptyDatasetError, InvalidParameterError
from ..metrics import Metric

__all__ = ["ShardStats", "Partition", "choose_pivots", "partition_objects"]

#: Relative slack applied to pruning bounds so floating-point rounding in
#: ``d(q, p) ± r`` can never exclude a true boundary match: pruning must
#: stay *conservative* (it may fail to prune, never wrongly prune).
PRUNE_EPS = 1e-9


@dataclass
class ShardStats:
    """Per-shard routing statistics: the pivot's exact distance profile.

    ``pivot_distances`` holds ``d(o, pivot)`` for **every** member,
    sorted ascending — exact values, not a sketch — so annulus counts
    are exact and a zero count certifies non-contribution.  ``rdd`` is
    the same sample binned as a :class:`~repro.core.DistanceHistogram`
    (the shard's relative distance distribution viewed from its pivot),
    which prices the *expected* contribution for routing decisions.
    """

    shard_id: int
    pivot: Any
    n_objects: int
    pivot_distances: np.ndarray
    rdd: DistanceHistogram

    @classmethod
    def from_objects(
        cls,
        shard_id: int,
        objects: Sequence[Any],
        pivot: Any,
        metric: Metric,
        d_plus: float,
        n_bins: int = 50,
        distances: Optional[np.ndarray] = None,
    ) -> "ShardStats":
        """Build stats for one shard, computing (or reusing) pivot distances."""
        if len(objects) == 0:
            raise EmptyDatasetError(
                f"shard {shard_id} has no objects to profile"
            )
        if distances is None:
            distances = np.asarray(metric.one_to_many(pivot, list(objects)))
        ordered = np.sort(np.asarray(distances, dtype=np.float64))
        [rdd] = partition_rdd_histograms([ordered], d_plus, n_bins=n_bins)
        return cls(
            shard_id=shard_id,
            pivot=pivot,
            n_objects=len(objects),
            pivot_distances=ordered,
            rdd=rdd,
        )

    @property
    def covering_radius(self) -> float:
        """Largest member-to-pivot distance (the shard's metric extent)."""
        return float(self.pivot_distances[-1])

    def _slack(self, pivot_dist: float, radius: float) -> float:
        return PRUNE_EPS * (abs(pivot_dist) + abs(radius) + 1.0)

    def candidate_count(self, pivot_dist: float, radius: float) -> int:
        """Exact count of members whose pivot distance falls in the
        triangle-inequality annulus ``[pivot_dist - radius, pivot_dist +
        radius]`` (with conservative float slack).

        Zero is a *proof* the shard holds no object within ``radius`` of
        the query; any positive count is only an upper bound on the
        shard's contribution.
        """
        if not (radius >= 0):
            raise InvalidParameterError(f"radius must be >= 0, got {radius}")
        slack = self._slack(pivot_dist, radius)
        lo = float(pivot_dist) - float(radius) - slack
        hi = float(pivot_dist) + float(radius) + slack
        left = int(np.searchsorted(self.pivot_distances, lo, side="left"))
        right = int(np.searchsorted(self.pivot_distances, hi, side="right"))
        return right - left

    def expected_matches(self, pivot_dist: float, radius: float) -> float:
        """Cost-model estimate of the shard's result contribution:
        ``n_i * (F_i(d + r) - F_i(d - r))`` on the per-shard RDD."""
        if not (radius >= 0):
            raise InvalidParameterError(f"radius must be >= 0, got {radius}")
        upper = float(self.rdd.cdf(pivot_dist + radius))
        lower = float(self.rdd.cdf(max(0.0, pivot_dist - radius)))
        return self.n_objects * max(0.0, upper - lower)

    def knn_upper_bounds(self, pivot_dist: float, k: int) -> np.ndarray:
        """Guaranteed upper bounds on the query distance of the shard's
        ``min(k, n)`` pivot-closest members: ``d(q, o) <= d(q, p) + d(o, p)``."""
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        take = min(k, self.n_objects)
        return float(pivot_dist) + self.pivot_distances[:take]


@dataclass
class Partition:
    """The outcome of partitioning: assignments plus per-shard statistics.

    ``shard_indices[i]`` holds the *global* positions (oids) of shard
    ``i``'s objects; ``dists_computed`` is the exact number of metric
    evaluations the partitioning spent (pivot selection + assignment +
    statistics — statistics reuse the assignment distances, so they are
    free).
    """

    n_shards: int
    pivots: List[Any]
    assignments: np.ndarray
    shard_indices: List[np.ndarray] = field(default_factory=list)
    stats: List[ShardStats] = field(default_factory=list)
    dists_computed: int = 0


def choose_pivots(
    objects: Sequence[Any],
    metric: Metric,
    n_shards: int,
    seed: int = 0,
) -> tuple:
    """Farthest-first (Gonzalez) pivot selection.

    Returns ``(pivot_positions, dists_computed)``.  The first pivot is a
    seeded random member; each subsequent pivot is the object farthest
    from all pivots chosen so far.
    """
    n = len(objects)
    if n_shards < 1:
        raise InvalidParameterError(f"n_shards must be >= 1, got {n_shards}")
    if n < n_shards:
        raise EmptyDatasetError(
            f"cannot split {n} objects across {n_shards} shards"
        )
    rng = np.random.default_rng(seed)
    first = int(rng.integers(0, n))
    positions = [first]
    dists = 0
    min_dist = np.asarray(metric.one_to_many(objects[first], list(objects)))
    dists += n
    for _ in range(1, n_shards):
        farthest = int(np.argmax(min_dist))
        positions.append(farthest)
        fresh = np.asarray(
            metric.one_to_many(objects[farthest], list(objects))
        )
        dists += n
        min_dist = np.minimum(min_dist, fresh)
    return positions, dists


def partition_objects(
    objects: Sequence[Any],
    metric: Metric,
    n_shards: int,
    d_plus: float,
    seed: int = 0,
    n_bins: int = 50,
) -> Partition:
    """Partition ``objects`` into ``n_shards`` nearest-pivot shards.

    Every object lands in exactly one shard (ties broken toward the
    lower shard id); the pivot-to-object distances computed for the
    assignment are *reused* as each shard's exact distance profile and
    RDD histogram — no distance is computed twice.
    """
    n = len(objects)
    positions, dists = choose_pivots(objects, metric, n_shards, seed=seed)
    pivots = [objects[p] for p in positions]
    matrix = np.empty((n_shards, n), dtype=np.float64)
    for row, pivot in enumerate(pivots):
        matrix[row] = np.asarray(metric.one_to_many(pivot, list(objects)))
        dists += n
    assignments = np.argmin(matrix, axis=0)
    shard_indices: List[np.ndarray] = []
    stats: List[ShardStats] = []
    for shard_id in range(n_shards):
        members = np.flatnonzero(assignments == shard_id)
        if members.size == 0:
            # Farthest-first pivots are members of the dataset and are
            # always their own nearest pivot, so this cannot happen; the
            # guard keeps the invariant loud if pivot selection changes.
            raise EmptyDatasetError(
                f"shard {shard_id} received no objects "
                f"({n} objects, {n_shards} shards)"
            )
        shard_indices.append(members)
        stats.append(
            ShardStats.from_objects(
                shard_id,
                [objects[i] for i in members],
                pivots[shard_id],
                metric,
                d_plus,
                n_bins=n_bins,
                distances=matrix[shard_id, members],
            )
        )
    return Partition(
        n_shards=n_shards,
        pivots=pivots,
        assignments=assignments,
        shard_indices=shard_indices,
        stats=stats,
        dists_computed=dists,
    )
