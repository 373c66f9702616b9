"""The vp-tree (vantage-point tree) of Chiueh / Yianilos, m-way variant.

Section 5 of the paper: each internal node holds a *vantage point* — an
object of the dataset — and ``m`` children; the distances between the
vantage point and the objects below it are split into ``m`` groups of equal
cardinality by cutoff values ``mu_1 <= ... <= mu_{m-1}``; child ``i`` holds
the objects whose distance lies in ``(mu_{i-1}, mu_i]``.  The tree stores
one object per node (the vantage point), so the cost model's ``e(N) = 1``:
accessing a node costs exactly one distance computation.

Range search descends child ``i`` iff ``mu_{i-1} - r_Q <= d(Q, O_v) <=
mu_i + r_Q`` (the paper's access criterion, with ``mu_0 = 0`` and ``mu_m``
the distance bound).  The lower test is not strict, because equal-
cardinality groups split ties: child ``i`` may hold objects at exactly
``mu_{i-1}``, which a query at ``d(Q, O_v) = mu_{i-1} - r_Q`` reaches.
The tree is main-memory resident — the paper ignores vp-tree I/O costs —
so queries report distance computations only (node accesses equal them
by construction).
"""

from __future__ import annotations

import heapq
import itertools
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import EmptyTreeError, InvalidParameterError
from ..metrics import Metric
from ..observability import state as _obs

__all__ = ["VPNode", "VPTree", "VPQueryStats", "VPRangeResult", "VPKNNResult"]

#: Relative widening of the k-NN search radius that subtree lower bounds
#: ``d(Q, v) - mu`` are tested against.  The subtraction rounds, and a
#: lower bound rounded up past the radius would drop an object lying
#: exactly on it (a tie at ``bound``).  Integer-valued metrics see no
#: change: the widening stays below 1.
KNN_REACH_EPS = 1e-9


@dataclass
class VPQueryStats:
    """Costs paid by one vp-tree query (one distance per accessed node).

    With observability installed the same quantities are mirrored into the
    registry counters ``vptree.nodes_accessed`` / ``vptree.dists_computed``
    (labelled by query ``kind``); see :mod:`repro.observability`.
    """

    nodes_accessed: int = 0
    dists_computed: int = 0

    @classmethod
    def from_registry(
        cls, kind: str = "range", registry=None
    ) -> "VPQueryStats":
        """Accumulated vp-tree stats as the registry saw them (zeros when
        observability is disabled)."""
        registry = registry if registry is not None else _obs.registry
        if registry is None:
            return cls()
        return cls(
            nodes_accessed=int(
                registry.counter_value("vptree.nodes_accessed", kind=kind)
            ),
            dists_computed=int(
                registry.counter_value("vptree.dists_computed", kind=kind)
            ),
        )


@dataclass
class VPRangeResult:
    """Range answer plus quarantine accounting (``completeness < 1.0``
    means damaged subtrees were routed around; see
    :class:`~repro.reliability.QuarantineSet`)."""

    items: List[Tuple[int, Any, float]]  # (oid, object, distance)
    stats: VPQueryStats
    skipped_subtrees: int = 0
    skipped_objects: int = 0
    completeness: float = 1.0

    def oids(self) -> List[int]:
        return [oid for oid, _obj, _dist in self.items]

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class VPKNNResult:
    """k-NN answer plus quarantine accounting (see
    :class:`VPRangeResult`)."""

    neighbors: List[Tuple[int, Any, float]]  # sorted by distance
    stats: VPQueryStats
    skipped_subtrees: int = 0
    skipped_objects: int = 0
    completeness: float = 1.0

    def distances(self) -> List[float]:
        return [dist for _oid, _obj, dist in self.neighbors]

    def oids(self) -> List[int]:
        return [oid for oid, _obj, _dist in self.neighbors]

    def __len__(self) -> int:
        return len(self.neighbors)


class VPNode:
    """One vantage point with its cutoffs and children."""

    __slots__ = ("obj", "oid", "cutoffs", "children")

    def __init__(self, obj: Any, oid: int):
        self.obj = obj
        self.oid = oid
        self.cutoffs: List[float] = []
        self.children: List[Optional["VPNode"]] = []

    @property
    def is_leaf(self) -> bool:
        return not any(child is not None for child in self.children)


class VPTree:
    """An m-way vantage-point tree over a generic metric space."""

    def __init__(
        self,
        metric: Metric,
        arity: int = 2,
        vantage_selection: str = "spread",
        seed: int = 0,
    ):
        if arity < 2:
            raise InvalidParameterError(f"arity must be >= 2, got {arity}")
        if vantage_selection not in ("random", "spread"):
            raise InvalidParameterError(
                "vantage_selection must be 'random' or 'spread', got "
                f"{vantage_selection!r}"
            )
        self.metric = metric
        self.arity = arity
        self.vantage_selection = vantage_selection
        self._rng = np.random.default_rng(seed)
        self._root: Optional[VPNode] = None
        self._n_objects = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        objects: Sequence[Any],
        metric: Metric,
        arity: int = 2,
        vantage_selection: str = "spread",
        seed: int = 0,
    ) -> "VPTree":
        """Build a vp-tree over ``objects`` (oids are input positions)."""
        tree = cls(metric, arity, vantage_selection, seed)
        if len(objects) == 0:
            return tree
        indices = list(range(len(objects)))
        tree._root = tree._build(objects, indices)
        tree._n_objects = len(objects)
        return tree

    def _select_vantage(self, objects: Sequence[Any], indices: List[int]) -> int:
        """Pick the vantage point's position within ``indices``.

        ``spread`` follows Yianilos: sample a few candidates, estimate each
        candidate's distance spread against a sample of the others, keep
        the candidate with the largest spread (better-separated partitions).
        """
        if len(indices) == 1 or self.vantage_selection == "random":
            return int(self._rng.integers(0, len(indices)))
        n_candidates = min(5, len(indices))
        n_probes = min(20, len(indices) - 1)
        candidates = self._rng.choice(len(indices), n_candidates, replace=False)
        best_pos, best_spread = 0, -1.0
        for pos in candidates:
            others = [i for i in range(len(indices)) if i != pos]
            probe_pos = self._rng.choice(
                len(others), min(n_probes, len(others)), replace=False
            )
            probes = [objects[indices[others[p]]] for p in probe_pos]
            dists = np.asarray(
                self.metric.one_to_many(objects[indices[pos]], probes)
            )
            spread = float(dists.var())
            if spread > best_spread:
                best_spread, best_pos = spread, int(pos)
        return best_pos

    def _build(self, objects: Sequence[Any], indices: List[int]) -> VPNode:
        vantage_pos = self._select_vantage(objects, indices)
        vantage_index = indices[vantage_pos]
        node = VPNode(objects[vantage_index], vantage_index)
        rest = indices[:vantage_pos] + indices[vantage_pos + 1 :]
        if not rest:
            return node
        dists = np.asarray(
            self.metric.one_to_many(objects[vantage_index], [objects[i] for i in rest])
        )
        order = np.argsort(dists, kind="stable")
        sorted_rest = [rest[i] for i in order]
        sorted_dists = dists[order]
        # Equal-cardinality groups; cutoffs are the largest distance in each
        # group (so membership is "mu_{i-1} < d <= mu_i").
        m = self.arity
        boundaries = [
            (len(sorted_rest) * (i + 1)) // m for i in range(m)
        ]  # cumulative end positions; last == len(rest)
        start = 0
        for i in range(m):
            end = boundaries[i]
            group = sorted_rest[start:end]
            if group:
                node.children.append(self._build(objects, group))
                node.cutoffs.append(float(sorted_dists[end - 1]))
            else:
                node.children.append(None)
                node.cutoffs.append(
                    float(sorted_dists[end - 1]) if end > 0 else 0.0
                )
            start = end
        # cutoffs has m entries: cutoffs[i] == mu_{i+1}; the last one is the
        # maximum distance in the subtree, kept for search bounds.
        return node

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def root(self) -> Optional[VPNode]:
        return self._root

    def __len__(self) -> int:
        return self._n_objects

    def height(self) -> int:
        def depth(node: Optional[VPNode]) -> int:
            if node is None:
                return 0
            if not node.children:
                return 1
            return 1 + max(depth(child) for child in node.children)

        return depth(self._root)

    def n_nodes(self) -> int:
        count = 0
        stack = [self._root] if self._root else []
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(c for c in node.children if c is not None)
        return count

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @staticmethod
    def _subtree_size(node: VPNode) -> int:
        """Objects in the subtree rooted at ``node`` (one per node)."""
        size = 0
        stack = [node]
        while stack:
            current = stack.pop()
            size += 1
            stack.extend(c for c in current.children if c is not None)
        return size

    def _completeness(self, skipped_objects: int) -> float:
        if self._n_objects == 0:
            return 1.0
        return (self._n_objects - skipped_objects) / self._n_objects

    def range_query(
        self,
        query: Any,
        radius: float,
        deadline: Optional[Any] = None,
        quarantine: Optional[Any] = None,
    ) -> VPRangeResult:
        """All objects within ``radius``; one distance per accessed node.

        The traversal is *frontier-batched*: every iteration evaluates
        the query's distance to the whole current frontier through one
        :meth:`~repro.metrics.Metric.one_to_many` kernel call instead of
        one scalar ``distance()`` per node.  Whether a child is visited
        depends only on its parent's own distance, so the accessed node
        set — and therefore ``dists_computed`` — is identical to the
        node-at-a-time traversal (pinned by the golden accounting
        tests); only the kernel batch size changes.

        ``deadline`` (a :class:`~repro.context.Deadline` or
        :class:`~repro.context.Context`) is polled once per frontier
        batch, so an over-budget query raises
        :class:`~repro.exceptions.DeadlineExceededError` promptly.

        ``quarantine`` (a :class:`~repro.reliability.QuarantineSet`)
        causes quarantined subtrees to be skipped; the result's
        ``completeness`` reports the reachable fraction of the dataset.
        """
        if not (radius >= 0):
            raise InvalidParameterError(f"radius must be >= 0, got {radius}")
        reg = _obs.registry
        tracer = _obs.tracer
        span = (
            tracer.span("vptree.range_query", radius=float(radius))
            if tracer is not None
            else nullcontext()
        )
        with span as sp:
            stats = VPQueryStats()
            items: List[Tuple[int, Any, float]] = []
            skipped_subtrees = 0
            skipped_objects = 0
            if self._root is None:
                return VPRangeResult(items, stats)
            if quarantine is not None and quarantine.contains(self._root):
                if reg is not None:
                    reg.inc("vptree.quarantine_skips", kind="range")
                return VPRangeResult(
                    items,
                    stats,
                    skipped_subtrees=1,
                    skipped_objects=self._subtree_size(self._root),
                    completeness=0.0,
                )
            frontier = [self._root]
            while frontier:
                if deadline is not None:
                    deadline.check("vptree range query")
                batch = frontier
                frontier = []
                if len(batch) == 1:
                    batch_dists = [
                        self.metric.distance(query, batch[0].obj)
                    ]
                else:
                    batch_dists = self.metric.one_to_many(
                        query, [n.obj for n in batch]
                    )
                stats.nodes_accessed += len(batch)
                stats.dists_computed += len(batch)
                if reg is not None:
                    reg.inc(
                        "vptree.nodes_accessed", len(batch), kind="range"
                    )
                    reg.inc(
                        "vptree.dists_computed", len(batch), kind="range"
                    )
                for node, dist in zip(batch, batch_dists):
                    dist = float(dist)
                    if dist <= radius:
                        items.append((node.oid, node.obj, dist))
                    previous_cut = 0.0
                    for cut, child in zip(node.cutoffs, node.children):
                        if child is not None:
                            # Quarantine is consulted before the shell
                            # test: a corrupt cutoff must never silently
                            # prune the damaged subtree out of the
                            # accounting.
                            if quarantine is not None and (
                                quarantine.contains(child)
                            ):
                                skipped_subtrees += 1
                                skipped_objects += self._subtree_size(
                                    child
                                )
                                if reg is not None:
                                    reg.inc(
                                        "vptree.quarantine_skips",
                                        kind="range",
                                    )
                            elif previous_cut - radius <= dist <= cut + radius:
                                frontier.append(child)
                            elif reg is not None:
                                reg.inc(
                                    "vptree.pruned_subtrees", kind="range"
                                )
                        previous_cut = cut
            if reg is not None:
                reg.inc("vptree.queries", kind="range")
                reg.inc("vptree.results", len(items), kind="range")
            if sp is not None:
                sp.set(
                    nodes=stats.nodes_accessed,
                    dists=stats.dists_computed,
                    results=len(items),
                )
            return VPRangeResult(
                items,
                stats,
                skipped_subtrees=skipped_subtrees,
                skipped_objects=skipped_objects,
                completeness=self._completeness(skipped_objects),
            )

    def knn_query(
        self,
        query: Any,
        k: int,
        deadline: Optional[Any] = None,
        quarantine: Optional[Any] = None,
        bound: float = math.inf,
    ) -> VPKNNResult:
        """Best-first k-NN using per-subtree distance lower bounds.

        Unlike :meth:`range_query`, this traversal stays one node per
        kernel call *by design*: each evaluated distance may tighten the
        k-th bound, which decides whether the next-best node is visited
        at all — batching a frontier would evaluate nodes the
        sequential order proves prunable and inflate ``dists_computed``.

        ``deadline`` is polled once per node pop; ``quarantine`` routes
        around damaged subtrees (see :meth:`range_query`).

        ``bound`` caps the search radius: the answer is the unbounded
        answer restricted to objects at distance ``<= bound`` (ties at
        ``bound`` kept), found at no more distances.  Until ``k``
        candidates are held the search prunes at ``bound`` instead of
        infinity, so a caller that already knows ``k`` objects within
        ``bound`` elsewhere (the router's nearest shard) skips every
        subtree that cannot beat them.
        """
        if self._root is None:
            raise EmptyTreeError("cannot run a k-NN query on an empty tree")
        if not (1 <= k <= self._n_objects):
            raise InvalidParameterError(
                f"k must lie in [1, {self._n_objects}], got {k}"
            )
        if not (bound >= 0):
            raise InvalidParameterError(f"bound must be >= 0, got {bound}")
        reg = _obs.registry
        tracer = _obs.tracer
        span = (
            tracer.span("vptree.knn_query", k=k)
            if tracer is not None
            else nullcontext()
        )
        with span as sp:
            stats = VPQueryStats()
            best: List[Tuple[float, int, Any]] = []  # max-heap via negation
            skipped_subtrees = 0
            skipped_objects = 0
            if quarantine is not None and quarantine.contains(self._root):
                if reg is not None:
                    reg.inc("vptree.quarantine_skips", kind="knn")
                return VPKNNResult(
                    [],
                    stats,
                    skipped_subtrees=1,
                    skipped_objects=self._subtree_size(self._root),
                    completeness=0.0,
                )

            def kth() -> float:
                return -best[0][0] if len(best) == k else bound

            def reach() -> float:
                radius = kth()
                return radius + KNN_REACH_EPS * (radius + 1.0)

            counter = itertools.count()
            pending: List[Tuple[float, int, VPNode]] = [
                (0.0, next(counter), self._root)
            ]
            while pending and pending[0][0] <= reach():
                if deadline is not None:
                    deadline.check("vptree k-NN query")
                _lower, _tie, node = heapq.heappop(pending)
                stats.nodes_accessed += 1
                dist = self.metric.distance(query, node.obj)
                stats.dists_computed += 1
                if reg is not None:
                    reg.inc("vptree.nodes_accessed", kind="knn")
                    reg.inc("vptree.dists_computed", kind="knn")
                if dist <= kth():
                    heapq.heappush(best, (-dist, node.oid, node.obj))
                    if len(best) > k:
                        heapq.heappop(best)
                previous_cut = 0.0
                for cut, child in zip(node.cutoffs, node.children):
                    if child is not None:
                        # Lower bound on d(Q, x) for x in the
                        # (previous_cut, cut] shell around the vantage point.
                        lower = max(previous_cut - dist, dist - cut, 0.0)
                        # Quarantine first — the bound uses the stored
                        # cutoffs, which are exactly what may be corrupt.
                        if quarantine is not None and quarantine.contains(
                            child
                        ):
                            skipped_subtrees += 1
                            skipped_objects += self._subtree_size(child)
                            if reg is not None:
                                reg.inc(
                                    "vptree.quarantine_skips", kind="knn"
                                )
                        elif lower <= reach():
                            heapq.heappush(
                                pending, (lower, next(counter), child)
                            )
                        elif reg is not None:
                            reg.inc("vptree.pruned_subtrees", kind="knn")
                    previous_cut = cut
            neighbors = sorted(
                ((oid, obj, -neg) for neg, oid, obj in best),
                key=lambda item: (item[2], item[0]),
            )
            if reg is not None:
                reg.inc("vptree.queries", kind="knn")
                reg.inc("vptree.results", len(neighbors), kind="knn")
            if sp is not None:
                sp.set(
                    nodes=stats.nodes_accessed, dists=stats.dists_computed
                )
            return VPKNNResult(
                neighbors,
                stats,
                skipped_subtrees=skipped_subtrees,
                skipped_objects=skipped_objects,
                completeness=self._completeness(skipped_objects),
            )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on violation.

        Runs :func:`~repro.reliability.fsck_vptree` (shells, cutoff
        shape, aliasing, accounting) with a tolerance of
        ``1e-9 / (1 + largest cutoff)``: fsck's relative shell margin
        ``tol * (1 + upper)`` then stays within 1e-9 absolute.
        """
        from ..reliability.fsck import fsck_vptree, vptree_scrub_units

        largest = max(
            (
                cut
                for unit in vptree_scrub_units(self)
                for cut in unit.node.cutoffs
            ),
            default=0.0,
        )
        report = fsck_vptree(self, tolerance=1e-9 / (1.0 + largest))
        assert report.ok, report.render()
