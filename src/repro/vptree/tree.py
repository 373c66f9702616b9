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
Both tests read ``r_Q`` widened by :data:`REACH_EPS`, so an object at
exactly ``r_Q`` survives the rounding of the distances they relate.
The tree is main-memory resident — the paper ignores vp-tree I/O costs —
so queries report distance computations only (node accesses equal them
by construction).

Construction: a node's random draws (its vantage candidates and their
probes) and its children's sizes depend only on how many objects it
holds.  :meth:`VPTree.build` therefore makes every draw first, walking
the node sizes in preorder, and then computes the distances one level
at a time, over the objects encoded once: the level's candidate/probe
pairs, then its vantage-point/member pairs, each through
:meth:`~repro.metrics.Metric.rowwise` calls of up to
:data:`BUILD_PAIRS_PER_CALL` pairs.  The tree is the one a
node-at-a-time recursion builds, bit for bit, from the same draws and
the same distances (so a :class:`~repro.metrics.CountingMetric` counts
the same build cost), wherever the metric's ``rowwise`` distances equal
its ``one_to_many`` ones, as they do for every kernel-backed metric.
"""

from __future__ import annotations

import heapq
import itertools
import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import EmptyTreeError, InvalidParameterError
from ..metrics import Metric
from ..observability import state as _obs

__all__ = ["VPNode", "VPTree", "VPQueryStats", "VPRangeResult", "VPKNNResult"]

#: Relative widening of the search radius that the shells around a
#: vantage point are tested against, in range and k-NN search alike.
#: ``d(Q, v)``, the cutoffs and their sums and differences all round, so
#: a shell test can miss an object lying exactly on the radius (a range
#: hit at ``r``, a k-NN tie at ``bound``) by a few ulps of the distances.
#: Integer-valued metrics see no change: the widening stays below 1.
REACH_EPS = 1e-9

#: Object pairs per ``rowwise`` call of :meth:`VPTree.build`: enough to
#: amortise a call, few enough that its inputs stay small next to the
#: tree (a level's ``"spread"`` probes alone are ~100 pairs per node).
BUILD_PAIRS_PER_CALL = 2048

#: One depth's ``"spread"`` draws, by shape ``(candidates, probes)``: the
#: nodes' preorder ids and, per node, one int32 array of its candidate
#: positions followed by each candidate's probe positions among the
#: other members.
_SpreadDraws = Dict[Tuple[int, int], Tuple[List[int], List[np.ndarray]]]


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
        """Build a vp-tree over ``objects`` (oids are input positions).

        Every random draw comes first, in preorder (:meth:`_draw`), then
        the distances, one tree level at a time (:meth:`_place`); see
        the module docstring.
        """
        tree = cls(metric, arity, vantage_selection, seed)
        if len(objects) == 0:
            return tree
        order, cutoffs, children = tree._place(
            objects, *tree._draw(len(objects))
        )
        nodes = [VPNode(objects[i], i) for i in order.tolist()]
        internal = np.flatnonzero((children >= 0).any(axis=1))
        for p, cuts, kids in zip(
            internal.tolist(),
            cutoffs[internal].tolist(),
            children[internal].tolist(),
        ):
            node = nodes[p]
            node.cutoffs = cuts
            node.children = [nodes[c] if c >= 0 else None for c in kids]
        tree._root = nodes[0]
        tree._n_objects = len(objects)
        return tree

    def _draw(
        self, n: int
    ) -> Tuple[np.ndarray, np.ndarray, List[List[int]], List[_SpreadDraws]]:
        """Phase 1: every random draw of the build, before any distance.

        A node's size decides its draws and its children's sizes (child
        ``i`` gets the ``i``-th equal-cardinality slice of the
        ``size - 1`` other members), so the sizes are walked in preorder,
        the order a node-at-a-time recursion visits them, and the
        generator sees that recursion's calls in the same order.  A
        one-object node draws nothing: ``integers(0, 1)`` leaves the
        generator as it was.  The node ``p``-th in preorder owns the
        slots ``p .. p + size - 1`` of the build's object order.

        Returns per preorder id the node's size and vantage slot (set here
        under ``"random"`` selection and for one-object nodes), and per
        depth the preorder ids of the nodes with children and their
        ``"spread"`` draws.
        """
        rng, m = self._rng, self.arity
        spread = self.vantage_selection == "spread"
        sizes = np.empty(n, dtype=np.int64)
        vantage = np.arange(n)
        levels: List[List[int]] = []
        draws: List[_SpreadDraws] = []
        stack = [(0, n, 0)]  # (preorder id, size, depth)
        while stack:
            p, size, depth = stack.pop()
            sizes[p] = size
            if size == 1:
                continue  # its one slot already holds its object
            if depth == len(levels):
                levels.append([])
                draws.append({})
            levels[depth].append(p)
            if not spread:
                vantage[p] = p + int(rng.integers(0, size))
            else:
                n_candidates, n_probes = min(5, size), min(20, size - 1)
                ids, drawn = draws[depth].setdefault(
                    (n_candidates, n_probes), ([], [])
                )
                ids.append(p)
                # The candidates, then each candidate's probes.
                drawn.append(
                    np.concatenate(
                        [rng.choice(size, n_candidates, replace=False)]
                        + [
                            rng.choice(size - 1, n_probes, replace=False)
                            for _ in range(n_candidates)
                        ],
                        dtype=np.int32,
                    )
                )
            ends = [((size - 1) * (i + 1)) // m for i in range(m)]
            starts = [0] + ends[:-1]
            for start, end in zip(reversed(starts), reversed(ends)):
                if end > start:
                    stack.append((p + 1 + start, end - start, depth + 1))
        return sizes, vantage, levels, draws

    def _place(
        self,
        objects: Sequence[Any],
        sizes: np.ndarray,
        vantage: np.ndarray,
        levels: List[List[int]],
        draws: List[_SpreadDraws],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Phase 2: the distances, one level at a time.

        ``order[s]`` is the object in slot ``s``; a node's slots hold its
        members in the order its parent sorted them.  Per level, every
        ``"spread"`` candidate is priced against its probes, and then
        every vantage point against the other members of its node, in
        ``rowwise`` calls of up to :data:`BUILD_PAIRS_PER_CALL` pairs
        each.  Each node puts its vantage point in its first slot and the
        others, stably sorted by distance, after it: those are its
        children's slots.  Returns ``order`` (now the vantage object of
        each preorder id), the cutoffs and the child ids (``-1`` for an
        empty child).
        """
        metric, m = self.metric, self.arity
        block = metric.encode(objects)
        order = np.arange(len(objects))
        cutoffs = np.zeros((len(objects), m))
        children = np.full((len(objects), m), -1, dtype=np.int64)
        for level, spread_draws in zip(levels, draws):
            if spread_draws:
                self._pick_spread(block, order, vantage, spread_draws)
            ids = np.asarray(level, dtype=np.int64)
            counts = sizes[ids] - 1
            owner = np.repeat(np.arange(ids.size), counts)
            firsts = np.cumsum(counts) - counts
            rank = np.arange(owner.size) - firsts[owner]
            rest = ids[owner] + rank
            rest += rest >= vantage[ids][owner]
            members = order[rest]
            points = order[vantage[ids]]
            dists = np.empty(owner.size)
            for at in range(0, owner.size, BUILD_PAIRS_PER_CALL):
                part = slice(at, at + BUILD_PAIRS_PER_CALL)
                dists[part] = metric.rowwise(
                    metric.take(block, points[owner[part]]),
                    metric.take(block, members[part]),
                )
            # Per node, the order a stable sort of its distances gives.
            ranked = np.lexsort((dists, owner))
            order[ids] = points
            order[ids[owner] + 1 + rank] = members[ranked]
            sorted_dists = dists[ranked]
            # Equal-cardinality groups; cutoffs are the largest distance in
            # each group (so membership is "mu_{i-1} < d <= mu_i"), and an
            # empty group repeats the cutoff before it (0 if none).
            ends = (counts[:, None] * np.arange(1, m + 1)) // m
            starts = np.hstack([np.zeros_like(ends[:, :1]), ends[:, :-1]])
            last = np.maximum(firsts[:, None] + ends - 1, 0)
            cutoffs[ids] = np.where(ends > 0, sorted_dists[last], 0.0)
            children[ids] = np.where(
                ends > starts, ids[:, None] + 1 + starts, -1
            )
        # cutoffs has m entries: cutoffs[i] == mu_{i+1}; the last one is the
        # maximum distance in the subtree, kept for search bounds.
        return order, cutoffs, children

    def _pick_spread(
        self,
        block: Sequence[Any],
        order: np.ndarray,
        vantage: np.ndarray,
        draws: _SpreadDraws,
    ) -> None:
        """Set ``vantage`` for one level's ``"spread"`` nodes.

        Yianilos's rule: of a few sampled candidates, keep the one whose
        distances to a sample of the other members spread most (better
        separated partitions).  The first largest variance wins and a NaN
        one never does; a node whose every variance is NaN keeps its
        first member.  Nodes of one shape are priced together, as many
        per ``rowwise`` call as :data:`BUILD_PAIRS_PER_CALL` allows.
        """
        metric = self.metric
        for (n_candidates, n_probes), (ids, drawn) in draws.items():
            step = max(1, BUILD_PAIRS_PER_CALL // (n_candidates * n_probes))
            for at in range(0, len(ids), step):
                first = np.asarray(ids[at : at + step])
                both = np.asarray(drawn[at : at + step])
                candidates = both[:, :n_candidates]
                picked = both[:, n_candidates:].reshape(
                    first.size, n_candidates, n_probes
                )
                # A probe position counts the members other than its
                # candidate: skip the candidate's own position.
                picked = picked + (picked >= candidates[:, :, None])
                candidates = candidates + first[:, None]
                dists = metric.rowwise(
                    metric.take(
                        block, np.repeat(order[candidates].ravel(), n_probes)
                    ),
                    metric.take(
                        block, order[picked + first[:, None, None]].ravel()
                    ),
                )
                spread = dists.reshape(-1, n_probes).var(axis=1)
                spread = np.where(np.isnan(spread), -1.0, spread)
                spread = spread.reshape(candidates.shape)
                rows = np.arange(first.size)
                best = candidates[rows, spread.argmax(axis=1)]
                vantage[first] = np.where(
                    spread.max(axis=1) >= 0.0, best, first
                )

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
            # Children are descended at the widened radius; hits are
            # still tested at the radius itself.
            reach = radius + REACH_EPS * (radius + 1.0)
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
                            elif previous_cut - reach <= dist <= cut + reach:
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
                return radius + REACH_EPS * (radius + 1.0)

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
