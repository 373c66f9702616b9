"""The M-tree: a paged, balanced, dynamic metric access method.

Implements the structure of Ciaccia, Patella & Zezula (VLDB'97) as used by
the PODS'98 cost-model paper:

* fixed-size nodes whose fanout derives from a byte-accurate
  :class:`~repro.mtree.layout.NodeLayout`;
* dynamic insertion with mM_RAD splits;
* ``range(Q, r_Q)`` search;
* the *optimal* ``NN(Q, k)`` search — it accesses exactly the nodes whose
  region intersects the final k-NN ball (priority-queue best-first descent);
* per-query cost accounting: node reads (I/O) and distance computations
  (CPU), which is what the cost models predict.

Footnote 2 of the paper excludes the parent-distance pruning optimisations
from the cost model; accordingly searches take a ``use_parent_pruning``
flag.  With pruning **off** (the default, matching the model's assumption)
every entry of an accessed node costs exactly one distance computation.
With pruning **on** the stored parent distances short-circuit part of them.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import (
    DeadlineExceededError,
    EmptyTreeError,
    InvalidParameterError,
    MetricostError,
    OperationCancelledError,
)
from ..metrics import Metric
from ..metrics.kernels.encode import StringBlock
from ..observability import state as _obs
from .entries import LeafEntry, RoutingEntry
from .layout import NodeLayout
from .node import Node
from .split import SplitOutcome, split_entries

__all__ = [
    "MTree",
    "QueryStats",
    "RangeResult",
    "KNNResult",
    "Neighbor",
    "InsertFailure",
    "InsertReport",
]


@dataclass
class QueryStats:
    """Costs actually paid by one query.

    With observability installed (:func:`repro.observability.install`) the
    same quantities are mirrored, increment for increment, into the
    registry counters ``mtree.nodes_accessed`` / ``mtree.dists_computed``
    (labelled by query ``kind``) — this dataclass remains the per-query
    view, the registry the process-wide accumulation.  The golden-counter
    tests assert the two stay equal field-for-field.
    """

    nodes_accessed: int = 0
    dists_computed: int = 0

    @classmethod
    def from_registry(
        cls, kind: str = "range", tree: str = "mtree", registry=None
    ) -> "QueryStats":
        """Accumulated stats for one query kind, as the registry saw them.

        A thin view over the metrics registry; all zeros when
        observability is disabled.
        """
        registry = registry if registry is not None else _obs.registry
        if registry is None:
            return cls()
        return cls(
            nodes_accessed=int(
                registry.counter_value(f"{tree}.nodes_accessed", kind=kind)
            ),
            dists_computed=int(
                registry.counter_value(f"{tree}.dists_computed", kind=kind)
            ),
        )


@dataclass(frozen=True)
class InsertFailure:
    """One object a batch insert could not store.

    ``index`` is the object's position in the submitted batch; ``error``
    is the stringified cause and ``kind`` the exception class name, so a
    caller (or a WAL replay) can decide whether the failure is
    deterministic (a malformed object will fail identically on every
    replay) without keeping the exception object alive.
    """

    index: int
    error: str
    kind: str

    def to_dict(self) -> dict:
        return {"index": self.index, "error": self.error, "kind": self.kind}


class InsertReport(list):
    """Result of :meth:`MTree.insert_many`: the successful oids plus
    typed per-object failures.

    Behaves exactly like the plain ``List[int]`` of oids the method used
    to return (equality, iteration, indexing), so existing callers are
    unaffected; ``failures`` carries an :class:`InsertFailure` per object
    that could not be inserted.
    """

    def __init__(self, oids: Iterable[int] = (), failures: Iterable[InsertFailure] = ()):
        super().__init__(oids)
        self.failures: List[InsertFailure] = list(failures)

    @property
    def oids(self) -> List[int]:
        return list(self)

    @property
    def ok(self) -> bool:
        return not self.failures

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InsertReport(inserted={len(self)}, "
            f"failed={len(self.failures)})"
        )


@dataclass
class RangeResult:
    """Objects within the query radius, with the costs paid to find them.

    When the query ran against a tree with quarantined nodes (see
    :class:`~repro.reliability.QuarantineSet`), ``skipped_subtrees`` /
    ``skipped_objects`` account for the damage routed around and
    ``completeness`` estimates the fraction of the dataset actually
    consulted — ``1.0`` means every live object was reachable.
    """

    items: List[Tuple[int, Any, float]]  # (oid, object, distance)
    stats: QueryStats
    skipped_subtrees: int = 0
    skipped_objects: int = 0
    completeness: float = 1.0

    def oids(self) -> List[int]:
        return [oid for oid, _obj, _d in self.items]

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class Neighbor:
    """One k-NN answer."""

    oid: int
    obj: Any
    distance: float


@dataclass
class KNNResult:
    """The k nearest neighbors (ascending distance) and the costs paid.

    ``skipped_subtrees`` / ``skipped_objects`` / ``completeness`` mirror
    :class:`RangeResult`: non-default values mean quarantined subtrees
    were routed around and the answer may be incomplete.
    """

    neighbors: List[Neighbor]
    stats: QueryStats
    skipped_subtrees: int = 0
    skipped_objects: int = 0
    completeness: float = 1.0

    def distances(self) -> List[float]:
        return [n.distance for n in self.neighbors]

    def oids(self) -> List[int]:
        return [n.oid for n in self.neighbors]

    def __len__(self) -> int:
        return len(self.neighbors)


#: Relative slack of the pruning tests.  The three distances a test
#: relates are each rounded (a sum over D coordinates by up to about D
#: ulps), so ``|d(Q, O_p) - d(O_i, O_p)|`` can exceed ``d(Q, O_i)``, and
#: ``d(Q, O_r)`` can exceed ``d(Q, O) + d(O, O_r)`` for an object ``O``
#: of the subtree, by a few ulps of the two distances the test reads; an
#: object at exactly the query radius would then be pruned.  The slack
#: scales with those two distances, not with the radius; it covers sums
#: of thousands of coordinates and is far below one unit of an integer
#: metric.
PARENT_PRUNE_SLACK = 1e-12


def _chain(parts: Iterable[Sequence[Any]]) -> List[Any]:
    """The parts' items in one list."""
    return list(itertools.chain.from_iterable(parts))


def _concat(columns: Iterable[np.ndarray]) -> np.ndarray:
    """The columns end to end (one column is returned as is)."""
    columns = list(columns)
    return columns[0] if len(columns) == 1 else np.concatenate(columns)


_IS_LEAF = operator.attrgetter("is_leaf")


def _split_kinds(
    nodes: List[Node], routing: Optional[List[np.ndarray]]
) -> List[Tuple[bool, List[Node], Optional[List[np.ndarray]]]]:
    """A frontier as ``(is_leaf, nodes, routing)`` groups: internal nodes
    first, then leaves, each in frontier order.  A balanced tree has one
    kind per level; only a damaged one mixes them."""
    n_leaves = sum(map(_IS_LEAF, nodes))
    if n_leaves == len(nodes):
        return [(True, nodes, routing)]
    if not n_leaves:
        return [(False, nodes, routing)]
    groups = []
    for leaf in (False, True):
        at = [i for i, node in enumerate(nodes) if bool(node.is_leaf) is leaf]
        groups.append((
            leaf,
            [nodes[i] for i in at],
            None if routing is None else [row[at] for row in routing],
        ))
    return groups


def _sizes(nodes: List[Node]) -> np.ndarray:
    """The nodes' entry counts."""
    return np.fromiter(map(len, nodes), np.int64, len(nodes))


def _depth_first_order(lengths: np.ndarray, survive: np.ndarray) -> np.ndarray:
    """Positions of the surviving entries in depth-first pop order.

    The entries are the runs of consecutive nodes (``lengths`` each) end
    to end; a stack that pushes each node's children in entry order pops
    them in reverse, so the order is: runs in order, each run backwards.
    """
    if len(lengths) == 1:
        return survive.nonzero()[0][::-1]
    ends = np.cumsum(lengths)
    mirror = np.repeat(ends + (ends - lengths) - 1, lengths)
    mirror -= np.arange(len(mirror))
    return mirror[survive[mirror]]


def _same_block(cached: Sequence[Any], fresh: Sequence[Any]) -> bool:
    """Whether two encodings of a node's objects agree: equal arrays, or
    sequences holding the very same objects (and, for string blocks,
    equal codepoint arrays)."""
    if isinstance(cached, np.ndarray) or isinstance(fresh, np.ndarray):
        return bool(np.array_equal(cached, fresh))
    if isinstance(cached, StringBlock) or isinstance(fresh, StringBlock):
        if not (
            isinstance(cached, StringBlock)
            and isinstance(fresh, StringBlock)
            and all(
                np.array_equal(getattr(cached, name), getattr(fresh, name))
                for name in ("data", "offsets", "lengths", "codes")
            )
        ):
            return False
    return len(cached) == len(fresh) and all(
        a is b for a, b in zip(cached, fresh)
    )


class MTree:
    """A dynamic, paged M-tree over a generic metric space."""

    def __init__(
        self,
        metric: Metric,
        layout: NodeLayout,
        split_policy: str = "mm_rad",
        seed: int = 0,
    ):
        self.metric = metric
        self.layout = layout
        self.split_policy = split_policy
        self._rng = np.random.default_rng(seed)
        self._root: Optional[Node] = None
        self._n_objects = 0
        self._next_oid = 0
        self._subtree_count_cache: Optional[dict] = None
        # The owner stamp of the nodes this tree may write in place (see
        # clone); None until the tree is first cloned.
        self._token: Optional[object] = None

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------

    @property
    def root(self) -> Optional[Node]:
        return self._root

    def __len__(self) -> int:
        return self._n_objects

    @property
    def height(self) -> int:
        """Tree height L (root at level 1, leaves at level L); 0 if empty."""
        if self._root is None:
            return 0
        return self._root.height()

    def n_nodes(self) -> int:
        """Total number of nodes M."""
        return sum(1 for _ in self.iter_nodes())

    def iter_nodes(self) -> Iterable[Node]:
        """Yield every node (root first, no particular level order),
        following each entry's own type so damaged trees walk too."""
        if self._root is None:
            return
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(
                entry.child
                for entry in node.entries
                if isinstance(entry, RoutingEntry)
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def insert(self, obj: Any, oid: Optional[int] = None) -> int:
        """Insert one object; returns its oid."""
        if oid is None:
            oid = self._next_oid
        self._next_oid = max(self._next_oid, oid + 1)
        reg = _obs.registry
        if self._root is None:
            self._root = Node(is_leaf=True, owner=self._token)
            self._root.add(LeafEntry(obj, oid, dist_to_parent=0.0))
            self._n_objects = 1
            self._invalidate_caches()
            if reg is not None:
                reg.inc("mtree.inserts")
            return oid
        split = self._insert_into(
            self._writable(self._root), obj, oid, parent_obj=None
        )
        if split is not None:
            self._grow_root(split)
        self._n_objects += 1
        self._invalidate_caches()
        if reg is not None:
            reg.inc("mtree.inserts")
        return oid

    def insert_many(self, objects: Iterable[Any]) -> "InsertReport":
        """Insert a batch of objects one by one; returns an
        :class:`InsertReport` — a list of the successful oids (so callers
        that expect the old ``List[int]`` keep working unchanged) with
        per-object :class:`InsertFailure` entries for the rest.

        One malformed object (wrong dimensionality, wrong type, a metric
        that rejects it) no longer aborts the remaining batch: the error
        is captured and insertion continues.  A failed insert leaves the
        tree valid — any covering radius already enlarged on the failed
        object's behalf remains a correct (merely loose) upper bound.
        Deadline expiry and cooperative cancellation still propagate:
        they describe the *caller's* budget, not the object.
        """
        reg = _obs.registry
        report = InsertReport()
        for index, obj in enumerate(objects):
            try:
                report.append(self.insert(obj))
            except (DeadlineExceededError, OperationCancelledError):
                raise
            except (MetricostError, TypeError, ValueError) as exc:
                report.failures.append(
                    InsertFailure(
                        index=index, error=str(exc), kind=type(exc).__name__
                    )
                )
                if reg is not None:
                    reg.inc("mtree.insert_failures")
        return report

    def _capacity(self, node: Node) -> int:
        return (
            self.layout.leaf_capacity
            if node.is_leaf
            else self.layout.internal_capacity
        )

    def _min_entries(self, node: Node) -> int:
        if node.is_leaf:
            return self.layout.leaf_min_entries
        # Internal nodes must never drop below 2 entries (a unary internal
        # node is structurally invalid), regardless of the utilisation
        # fraction — this also forces splits to leave >= 2 per side.
        return max(2, self.layout.internal_min_entries)

    def _writable(
        self,
        node: Node,
        parent: Optional[Node] = None,
        entry: Optional[RoutingEntry] = None,
    ) -> Node:
        """``node`` if this tree owns it, else a copy of it owned by this
        tree that takes its place: as ``entry``'s child in ``parent``
        (which must be writable), or as the root when ``parent`` is
        None.  Writers take a path top-down through here, so a node
        shared with a clone is never written."""
        if node.owner is self._token:
            return node
        twin = node.copy(self._token)
        if parent is None:
            self._root = twin
        else:
            parent.set_child(entry, twin)
        return twin

    def _insert_into(
        self, node: Node, obj: Any, oid: int, parent_obj: Optional[Any]
    ) -> Optional[SplitOutcome]:
        """Recursive insert into the writable ``node``; returns a split
        outcome if it overflowed."""
        if node.is_leaf:
            if parent_obj is not None:
                dist_to_parent = self.metric.distance(obj, parent_obj)
                reg = _obs.registry
                if reg is not None:
                    reg.inc("mtree.dists_computed", kind="insert")
            else:
                dist_to_parent = 0.0
            node.add(LeafEntry(obj, oid, dist_to_parent))
        else:
            entry = self._choose_subtree(node, obj)
            child = self._writable(entry.child, node, entry)
            child_split = self._insert_into(child, obj, oid, entry.obj)
            if child_split is not None:
                self._apply_child_split(node, entry, child_split, parent_obj)
        if len(node.entries) > self._capacity(node):
            return split_entries(
                node.entries,
                self.metric,
                self._min_entries(node),
                policy=self.split_policy,
                rng=self._rng,
            )
        return None

    def _choose_subtree(self, node: Node, obj: Any) -> RoutingEntry:
        """VLDB'97 ChooseSubtree: prefer a covering entry at minimum
        distance; otherwise minimise the radius enlargement (and enlarge).

        All routing distances of the node are evaluated in one batched
        kernel call (``Metric.one_to_many``), exactly as the query
        traversals do; a single-entry node keeps the scalar path.  The
        number of distances computed is identical to the old
        entry-at-a-time loop — pinned by the golden insert counters.
        """
        entries = node.entries
        if len(entries) == 1:
            dists = [self.metric.distance(obj, entries[0].obj)]
        else:
            dists = self.metric.one_to_many(
                obj, node.block(self.metric)
            ).tolist()
        reg = _obs.registry
        if reg is not None:
            reg.inc("mtree.dists_computed", len(entries), kind="insert")
        best_covering: Optional[Tuple[float, RoutingEntry]] = None
        best_enlarging: Optional[Tuple[float, float, RoutingEntry]] = None
        for entry, dist in zip(entries, dists):
            assert isinstance(entry, RoutingEntry)
            if dist <= entry.radius:
                if best_covering is None or dist < best_covering[0]:
                    best_covering = (dist, entry)
            else:
                enlargement = dist - entry.radius
                if best_enlarging is None or enlargement < best_enlarging[0]:
                    best_enlarging = (enlargement, dist, entry)
        if best_covering is not None:
            return best_covering[1]
        assert best_enlarging is not None  # internal nodes are never empty
        _enlargement, dist, entry = best_enlarging
        node.set_radius(entry, dist)
        return entry

    def _apply_child_split(
        self,
        node: Node,
        old_entry: RoutingEntry,
        split: SplitOutcome,
        parent_obj: Optional[Any],
    ) -> None:
        """Replace a split child's routing entry with the two new ones."""
        first_child, second_child = self._split_nodes(split)

        def parent_distance(routing_obj: Any) -> float:
            if parent_obj is None:
                return 0.0
            return self.metric.distance(routing_obj, parent_obj)

        node.remove(old_entry)
        node.add(
            RoutingEntry(
                split.first_obj,
                split.first_radius,
                first_child,
                parent_distance(split.first_obj),
            )
        )
        node.add(
            RoutingEntry(
                split.second_obj,
                split.second_radius,
                second_child,
                parent_distance(split.second_obj),
            )
        )

    @staticmethod
    def _entries_are_leaf(entries: Sequence) -> bool:
        return bool(entries) and isinstance(entries[0], LeafEntry)

    def _split_nodes(self, split: SplitOutcome) -> Tuple[Node, Node]:
        """The two new nodes of a split, owned by this tree, with their
        entries' parent distances refreshed.  On a tree that has been
        cloned, leaf entries are copied first: copied leaves share them
        with other trees (see :meth:`Node.copy`)."""
        leaf = self._entries_are_leaf(split.first_entries)
        shared = leaf and self._token is not None
        nodes = []
        for entries, routing_obj in (
            (split.first_entries, split.first_obj),
            (split.second_entries, split.second_obj),
        ):
            node = Node(is_leaf=leaf, owner=self._token)
            node.replace([e.copy() for e in entries] if shared else entries)
            self._refresh_parent_distances(node, routing_obj)
            nodes.append(node)
        return nodes[0], nodes[1]

    def _refresh_parent_distances(self, node: Node, routing_obj: Any) -> None:
        entries = node.entries
        if not entries:
            return
        if len(entries) == 1:
            dists = [self.metric.distance(entries[0].obj, routing_obj)]
        else:
            dists = self.metric.one_to_many(
                routing_obj, node.block(self.metric)
            ).tolist()
        reg = _obs.registry
        if reg is not None:
            reg.inc("mtree.dists_computed", len(entries), kind="insert")
        for entry, dist in zip(entries, dists):
            node.set_parent_distance(entry, float(dist))

    def _grow_root(self, split: SplitOutcome) -> None:
        """Root split: the tree grows one level."""
        first_child, second_child = self._split_nodes(split)
        new_root = Node(is_leaf=False, owner=self._token)
        new_root.add(
            RoutingEntry(split.first_obj, split.first_radius, first_child, 0.0)
        )
        new_root.add(
            RoutingEntry(split.second_obj, split.second_radius, second_child, 0.0)
        )
        self._root = new_root

    def _adopt_root(self, root: Node, n_objects: int) -> None:
        """Install a bulk-loaded subtree as this tree's root (internal)."""
        self._root = root
        self._n_objects = n_objects
        self._next_oid = n_objects
        self._invalidate_caches()

    def clone(self) -> "MTree":
        """A twin sharing every node with this tree, in O(1).

        Both trees get a fresh write token (:attr:`Node.owner`), so from
        now on each writes in place only to the nodes it makes itself:
        an insert or delete first replaces every shared node on the path
        it writes by a copy (:meth:`Node.copy`: routing entries are
        copied; the leaf entries, block, columns and children shared),
        re-pointed from the parent's entry (:meth:`Node.set_child`).
        Leaf entries stay shared because a cloned tree never writes one
        in place: a leaf split moves copies of them.  Neither tree's
        writes ever reach the other, which is what the ingest layer's
        epoch-pinned views need, and no distance is computed.  Copied
        nodes are new objects: identities kept by id (quarantine sets,
        access logs) do not carry over to them.

        The clone gets a fresh RNG; split sampling only consults it
        above the exhaustive-pair threshold, and the default ``mm_rad``
        policy is deterministic below it.
        """
        twin = MTree(self.metric, self.layout, split_policy=self.split_policy)
        twin._root = self._root
        twin._n_objects = self._n_objects
        twin._next_oid = self._next_oid
        self._token = object()
        twin._token = object()
        return twin

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def range_query(
        self,
        query: Any,
        radius: float,
        use_parent_pruning: bool = False,
        access_log: Optional[List[int]] = None,
        deadline: Optional[Any] = None,
        quarantine: Optional[Any] = None,
    ) -> RangeResult:
        """``range(Q, r_Q)``: all objects within ``radius`` of ``query``.

        With ``use_parent_pruning=False`` (the cost-model assumption) every
        entry of every accessed node costs one distance computation; with
        pruning on, the stored parent distances skip provably-excluded
        entries without computing their distance.

        ``access_log``, if given, receives ``id(node)`` for every accessed
        node in access order — the page-reference string a buffer-pool
        simulation replays (see :mod:`repro.storage.pager`).  The search
        is level-synchronous, so the log lists the nodes level by level.

        ``deadline`` is an optional :class:`~repro.context.Deadline` or
        :class:`~repro.context.Context`; it is polled once per accessed
        node, so an over-budget query raises
        :class:`~repro.exceptions.DeadlineExceededError` within one node's
        worth of work instead of running to completion.

        ``quarantine`` is an optional
        :class:`~repro.reliability.QuarantineSet`; subtrees rooted at
        quarantined nodes are skipped (never read) and the result's
        ``completeness`` / ``skipped_objects`` report how much of the
        dataset was thereby unreachable.
        """
        if not (radius >= 0):
            raise InvalidParameterError(f"radius must be >= 0, got {radius}")
        tracer = _obs.tracer
        span = (
            tracer.span("mtree.range_query", radius=float(radius))
            if tracer is not None
            else nullcontext()
        )
        with span as sp:
            result, _count = self._scan_levels(
                "range",
                [(query, radius)],
                use_parent_pruning=use_parent_pruning,
                access_log=access_log,
                deadline=deadline,
                quarantine=quarantine,
            )
            if sp is not None:
                sp.set(
                    nodes=result.stats.nodes_accessed,
                    dists=result.stats.dists_computed,
                    results=len(result),
                )
        return result

    def _quarantine_skip(
        self, node: Node, counts: dict, reg, kind: str
    ) -> int:
        """Account for one quarantined subtree routed around."""
        skipped = counts.get(id(node), 0)
        if reg is not None:
            reg.inc("mtree.quarantine_skips", kind=kind)
        return skipped

    def _scan_levels(
        self,
        kind: str,
        predicates: Sequence[Tuple[Any, float]],
        mode: str = "and",
        count_only: bool = False,
        use_parent_pruning: bool = False,
        access_log: Optional[List[int]] = None,
        deadline: Optional[Any] = None,
        quarantine: Optional[Any] = None,
    ) -> Tuple[RangeResult, int]:
        """The one traversal behind range, range-count and complex range
        queries: level-synchronous, one kernel call per level and query.

        Whether a node is read depends only on its parent entry's
        distances, so the set of nodes read — and ``nodes_accessed`` /
        ``dists_computed`` — is that of a node-at-a-time traversal.  At
        each level the nodes' blocks are joined
        (:meth:`~repro.metrics.Metric.join`), and the level's entries are
        tested as columns (:attr:`Node.radii`, :attr:`Node.oids`, ...):
        quarantined children and parent-distance prunes are dropped by
        one mask (the block's survivors picked by
        :meth:`~repro.metrics.Metric.take`), each predicate's query
        makes one ``one_to_many`` call over the rest (one
        ``one_to_many_bounded`` call at the leaves of an ``and``), and
        one more mask picks the children to read or the objects to
        return.  The next frontier is kept in the order a depth-first
        stack would pop it (parents in order, each parent's surviving
        children in reverse), so results come out in depth-first order.

        An entry qualifies when ``mode`` (``"and"`` / ``"or"``) combines
        its per-predicate tests; items report the distance to the first
        predicate's query.  ``count_only`` (one predicate) counts instead
        of collecting, and adds the cached size of a subtree that lies
        inside the query ball without reading it.  Returns the result and
        the count (``len(items)`` unless ``count_only``).
        """
        reg = _obs.registry
        tracer = _obs.tracer
        metric = self.metric
        stats = QueryStats()
        items: List[Tuple[int, Any, float]] = []
        total = 0
        skipped_subtrees = 0
        skipped_objects = 0
        if self._root is None:
            return RangeResult(items, stats), 0
        if quarantine is not None and not len(quarantine):
            quarantine = None
        counts = (
            self._subtree_counts()
            if quarantine is not None or count_only
            else {}
        )
        if quarantine is not None and quarantine.contains(self._root):
            skipped = self._quarantine_skip(self._root, counts, reg, kind)
            return RangeResult(
                items,
                stats,
                skipped_subtrees=1,
                skipped_objects=skipped,
                completeness=0.0,
            ), 0
        hooked = not (deadline is None and reg is None and access_log is None)
        combine = np.logical_and if mode == "and" else np.logical_or
        radii = [float(radius) for _query, radius in predicates]
        single = len(radii) == 1
        # The frontier, and the distances from each predicate's query to
        # its nodes' routing objects (one array per predicate; None for
        # the root).
        nodes: List[Node] = [self._root]
        routing: Optional[List[np.ndarray]] = None
        level = 1
        pruned = 0
        aggregated = 0
        while nodes:
            span = (
                tracer.span("mtree.level", level=level, nodes=len(nodes))
                if tracer is not None and tracer.trace_nodes
                else nullcontext()
            )
            with span as sp:
                for node in nodes if hooked else ():
                    if deadline is not None:
                        deadline.check(f"mtree {kind} query")
                    if reg is not None:
                        reg.observe(
                            "mtree.fanout", len(node.entries), level=level
                        )
                    if access_log is not None:
                        access_log.append(id(node))
                if reg is not None:
                    reg.inc("mtree.nodes_accessed", len(nodes), kind=kind)
                stats.nodes_accessed += len(nodes)
                frontier, frontier_routing = nodes, routing
                nodes, routing = [], None
                n_entries = 0
                for leaf, group, group_routing in _split_kinds(
                    frontier, frontier_routing
                ):
                    keep, skips = self._entry_mask(
                        kind, group, group_routing, radii, combine,
                        use_parent_pruning, quarantine, counts,
                    )
                    skipped_subtrees += len(skips)
                    skipped_objects += sum(skips)
                    block = metric.join([node.block(metric) for node in group])
                    kept: Optional[np.ndarray] = None
                    if keep is not None:
                        kept = keep.nonzero()[0]
                        if not kept.size:
                            continue
                        block = metric.take(block, kept)
                    rows = self._level_distances(
                        kind, predicates, block, leaf=leaf and mode == "and"
                    )
                    n_entries += len(block)
                    if leaf:
                        tests = [row <= r for row, r in zip(rows, radii)]
                        hit = tests[0] if single else combine.reduce(tests)
                        if count_only:
                            total += int(np.count_nonzero(hit))
                            continue
                        hits = hit.nonzero()[0]
                        if not hits.size:
                            continue
                        where = hits if kept is None else kept[hits]
                        objects = _chain(node.objects for node in group)
                        items.extend(zip(
                            _concat(node.oids for node in group)[where]
                            .tolist(),
                            map(objects.__getitem__, where.tolist()),
                            rows[0][hits].tolist(),
                        ))
                        continue
                    reach = _concat(node.radii for node in group)
                    if kept is not None:
                        reach = reach[kept]
                    # d(Q, O_r) <= r_Q + r(N_r), up to the distances'
                    # rounding (PARENT_PRUNE_SLACK).
                    tests = [
                        row <= r + reach + PARENT_PRUNE_SLACK * (row + reach)
                        for row, r in zip(rows, radii)
                    ]
                    survive = tests[0] if single else combine.reduce(tests)
                    children = _chain(node.children for node in group)
                    n_inside = 0
                    if count_only:
                        # A subtree inside the ball is counted, not read.
                        inside = (rows[0] + reach <= radii[0]).nonzero()[0]
                        survive[inside] = False
                        n_inside = inside.size
                        where = inside if kept is None else kept[inside]
                        for i in where.tolist():
                            total += counts[id(children[i])]
                    aggregated += n_inside
                    pruned += (
                        len(block) - n_inside - int(np.count_nonzero(survive))
                    )
                    runs = _sizes(group)
                    if kept is not None:
                        # Each node's survivors stay one run, in order.
                        runs = np.bincount(
                            np.repeat(np.arange(len(group)), runs)[kept],
                            minlength=len(group),
                        )
                    order = _depth_first_order(runs, survive)
                    where = order if kept is None else kept[order]
                    nodes = list(map(children.__getitem__, where.tolist()))
                    routing = [row[order] for row in rows]
                stats.dists_computed += len(predicates) * n_entries
                if sp is not None:
                    sp.set(entries=n_entries)
            level += 1
        if reg is not None:
            if pruned:
                reg.inc("mtree.pruned_subtrees", pruned, kind=kind)
            if aggregated:
                reg.inc("mtree.aggregated_subtrees", aggregated, kind=kind)
            reg.inc("mtree.queries", kind=kind)
        if not count_only:
            total = len(items)
        if reg is not None:
            reg.inc("mtree.results", total, kind=kind)
        completeness = (
            (self._n_objects - skipped_objects) / self._n_objects
            if self._n_objects
            else 1.0
        )
        return RangeResult(
            items,
            stats,
            skipped_subtrees=skipped_subtrees,
            skipped_objects=skipped_objects,
            completeness=completeness,
        ), total

    def _entry_mask(
        self,
        kind: str,
        group: List[Node],
        routing: Optional[List[np.ndarray]],
        radii: List[float],
        combine: Any,
        use_parent_pruning: bool,
        quarantine: Optional[Any],
        counts: dict,
    ) -> Tuple[Optional[np.ndarray], List[int]]:
        """Which entries of ``group`` (same-kind nodes of one level) to
        evaluate, as a mask over their entries end to end (None: all),
        and the object count of each quarantined subtree skipped.

        Quarantined children are routed around *before* any pruning
        test: a corrupt radius or parent distance must never be trusted
        to decide whether damage is worth reporting.  With parent
        pruning, ``|d(Q, O_p) - d(O_i, O_p)| > r_Q (+ r(N_i))`` proves an
        entry cannot qualify without computing ``d(Q, O_i)``, once the
        excess is beyond the distances' rounding (``PARENT_PRUNE_SLACK``).
        """
        keep: Optional[np.ndarray] = None
        skips: List[int] = []
        leaf = group[0].is_leaf
        if quarantine is not None and not leaf:
            children = _chain(node.children for node in group)
            dead = [
                i
                for i, child in enumerate(children)
                if quarantine.contains(child)
            ]
            if dead:
                keep = np.ones(len(children), dtype=bool)
                keep[dead] = False
                reg = _obs.registry
                skips = [
                    self._quarantine_skip(children[i], counts, reg, kind)
                    for i in dead
                ]
        if use_parent_pruning and routing is not None:
            owner = np.repeat(np.arange(len(group)), _sizes(group))
            parents = _concat(node.parent_distances for node in group)
            reach = 0.0 if leaf else _concat(node.radii for node in group)
            tests = []
            for row, r in zip(routing, radii):
                to_parent = row[owner]
                slack = PARENT_PRUNE_SLACK * (to_parent + parents)
                tests.append(
                    np.abs(to_parent - parents) <= r + reach + slack
                )
            near = combine.reduce(tests)
            keep = near if keep is None else keep & near
        return keep, skips

    def _level_distances(
        self,
        kind: str,
        predicates: Sequence[Tuple[Any, float]],
        block: Sequence[Any],
        leaf: bool,
    ) -> List[np.ndarray]:
        """One kernel call per predicate over ``block``: exact distances,
        or bounded by each predicate's radius when ``leaf``.  Returns one
        distance array per predicate."""
        metric = self.metric
        n = len(block)
        tracer = _obs.tracer
        rows = []
        for query, radius in predicates:
            span = (
                tracer.span("mtree.distance_eval", n=n)
                if tracer is not None and tracer.trace_distances
                else nullcontext()
            )
            with span:
                if leaf:
                    row = metric.one_to_many_bounded(query, block, radius)
                else:
                    row = metric.one_to_many(query, block)
            rows.append(row)
        reg = _obs.registry
        if reg is not None:
            reg.inc("mtree.dists_computed", len(predicates) * n, kind=kind)
        return rows

    def _traced_distances(
        self,
        query: Any,
        objs: Sequence[Any],
        level: int,
        bound: Optional[float] = None,
    ):
        """Batched distance evaluation under node-visit/distance spans
        (the k-NN search's per-node spans)."""
        tracer = _obs.tracer

        def evaluate():
            if bound is not None:
                return self.metric.one_to_many_bounded(query, objs, bound)
            return self.metric.one_to_many(query, objs)

        with tracer.span("mtree.node_visit", level=level, entries=len(objs)):
            if tracer.trace_distances:
                with tracer.span("mtree.distance_eval", n=len(objs)):
                    return evaluate()
            return evaluate()

    def knn_query(
        self,
        query: Any,
        k: int,
        use_parent_pruning: bool = False,
        access_log: Optional[List[int]] = None,
        deadline: Optional[Any] = None,
        quarantine: Optional[Any] = None,
    ) -> KNNResult:
        """Optimal ``NN(Q, k)``: best-first search with a node priority queue.

        Only accesses nodes whose region intersects the final k-NN ball
        (the optimality criterion of Berchtold et al. adopted in Section
        1.1), implemented by expanding regions in order of ``d_min`` and
        stopping when ``d_min`` exceeds the current k-th NN distance.

        ``deadline`` (a :class:`~repro.context.Deadline` or
        :class:`~repro.context.Context`) is polled once per node pop.

        ``quarantine`` (a :class:`~repro.reliability.QuarantineSet`)
        causes quarantined subtrees to be routed around; the result's
        ``completeness`` reports the fraction of objects reachable.
        """
        if self._root is None:
            raise EmptyTreeError("cannot run a k-NN query on an empty tree")
        if not (1 <= k <= self._n_objects):
            raise InvalidParameterError(
                f"k must lie in [1, {self._n_objects}], got {k}"
            )
        tracer = _obs.tracer
        if tracer is not None:
            with tracer.span("mtree.knn_query", k=k) as sp:
                result = self._knn_query_impl(
                    query, k, use_parent_pruning, access_log, deadline,
                    quarantine,
                )
                sp.set(
                    nodes=result.stats.nodes_accessed,
                    dists=result.stats.dists_computed,
                )
                return result
        return self._knn_query_impl(
            query, k, use_parent_pruning, access_log, deadline, quarantine
        )

    def _knn_query_impl(
        self,
        query: Any,
        k: int,
        use_parent_pruning: bool,
        access_log: Optional[List[int]],
        deadline: Optional[Any] = None,
        quarantine: Optional[Any] = None,
    ) -> KNNResult:
        reg = _obs.registry
        tracer = _obs.tracer
        trace_nodes = tracer is not None and tracer.trace_nodes
        metric = self.metric
        stats = QueryStats()
        if quarantine is not None and not len(quarantine):
            quarantine = None
        counts = self._subtree_counts() if quarantine is not None else {}
        skipped_subtrees = 0
        skipped_objects = 0
        if quarantine is not None and quarantine.contains(self._root):
            skipped = self._quarantine_skip(self._root, counts, reg, "knn")
            return KNNResult(
                [],
                stats,
                skipped_subtrees=1,
                skipped_objects=skipped,
                completeness=0.0,
            )
        # Max-heap (as negated distances) of the best k candidates found,
        # and the k-th best distance (inf until k are held).
        best: List[Tuple[float, int, Any]] = []  # (-distance, oid, obj)
        kth = math.inf
        counter = itertools.count()  # heap tie-breaker
        pending: List[Tuple[float, int, Node, Optional[float], int]] = [
            (0.0, next(counter), self._root, None, 1)
        ]
        while pending and pending[0][0] <= kth:
            if deadline is not None:
                deadline.check("mtree k-NN query")
            _d_min, _tie, node, dist_to_routing, level = heapq.heappop(
                pending
            )
            leaf = node.is_leaf
            stats.nodes_accessed += 1
            if reg is not None:
                reg.inc("mtree.nodes_accessed", kind="knn")
                reg.observe("mtree.fanout", len(node.entries), level=level)
            if access_log is not None:
                access_log.append(id(node))
            keep: Optional[np.ndarray] = None
            parent_test = (
                use_parent_pruning
                and dist_to_routing is not None
                and kth != math.inf
            )
            if quarantine is not None or parent_test:
                # As in the range query, one mask over the entries; the
                # parent-distance test uses the k-th distance as radius.
                keep, skips = self._entry_mask(
                    "knn",
                    [node],
                    [np.array([dist_to_routing])] if parent_test else None,
                    [kth],
                    np.logical_and,
                    use_parent_pruning,
                    quarantine,
                    counts,
                )
                skipped_subtrees += len(skips)
                skipped_objects += sum(skips)
            block = node.block(metric)
            kept: Optional[np.ndarray] = None
            if keep is not None:
                kept = keep.nonzero()[0]
                if not kept.size:
                    continue
                block = metric.take(block, kept)
            # Leaves only need distances up to the current k-th best (the
            # dynamic radius can only shrink, so a proven-greater distance
            # can never re-qualify); internal nodes need exact values for
            # the d_min frontier ordering.
            bound = kth if leaf and kth != math.inf else None
            if trace_nodes:
                dists = self._traced_distances(query, block, level, bound)
            elif bound is not None:
                dists = metric.one_to_many_bounded(query, block, bound)
            else:
                dists = metric.one_to_many(query, block)
            stats.dists_computed += len(dists)
            if reg is not None:
                reg.inc("mtree.dists_computed", len(dists), kind="knn")
            if leaf:
                # Only entries within the k-th distance at node entry can
                # qualify; each hit is re-checked against the shrinking one.
                hits = (dists <= kth).nonzero()[0]
                if not hits.size:
                    continue
                where = hits if kept is None else kept[hits]
                objects = node.objects
                for oid, i, dist in zip(
                    node.oids[where].tolist(),
                    where.tolist(),
                    dists[hits].tolist(),
                ):
                    if dist <= kth:
                        heapq.heappush(best, (-dist, oid, objects[i]))
                        if len(best) > k:
                            heapq.heappop(best)
                        if len(best) == k:
                            kth = -best[0][0]
                continue
            radii = node.radii if kept is None else node.radii[kept]
            d_min = np.maximum(dists - radii, 0.0)
            near = (d_min <= kth).nonzero()[0]
            if reg is not None and near.size < len(dists):
                reg.inc(
                    "mtree.pruned_subtrees", len(dists) - near.size, kind="knn"
                )
            where = near if kept is None else kept[near]
            for child, lower, dist in zip(
                map(node.children.__getitem__, where.tolist()),
                d_min[near].tolist(),
                dists[near].tolist(),
            ):
                heapq.heappush(
                    pending, (lower, next(counter), child, dist, level + 1)
                )
        neighbors = sorted(
            (Neighbor(oid, obj, -neg) for neg, oid, obj in best),
            key=lambda nb: (nb.distance, nb.oid),
        )
        if reg is not None:
            reg.inc("mtree.queries", kind="knn")
            reg.inc("mtree.results", len(neighbors), kind="knn")
        completeness = (
            (self._n_objects - skipped_objects) / self._n_objects
            if self._n_objects
            else 1.0
        )
        return KNNResult(
            neighbors,
            stats,
            skipped_subtrees=skipped_subtrees,
            skipped_objects=skipped_objects,
            completeness=completeness,
        )

    def range_count(
        self, query: Any, radius: float, deadline: Optional[Any] = None
    ) -> Tuple[int, QueryStats]:
        """Count objects within ``radius`` without materialising them.

        Aggregate pushdown: when a node's region is *fully contained* in
        the query ball (``d(Q, O_r) + r(N) <= r_Q``), its whole subtree
        qualifies — the cached subtree cardinality is added and the
        subtree is neither read nor distance-checked.  For large radii
        this saves most of the I/O and CPU a ``range_query`` would pay.

        ``deadline`` is polled once per accessed node.  Returns
        ``(count, stats)``.
        """
        if not (radius >= 0):
            raise InvalidParameterError(f"radius must be >= 0, got {radius}")
        result, count = self._scan_levels(
            "range_count", [(query, radius)], count_only=True, deadline=deadline
        )
        return count, result.stats

    def _subtree_counts(self) -> dict:
        """Cached ``id(node) -> subtree object count`` (built lazily,
        invalidated by inserts and deletes)."""
        if self._subtree_count_cache is not None:
            return self._subtree_count_cache
        cache = {}

        def fill(node: Node) -> int:
            if node.is_leaf:
                size = len(node.entries)
            else:
                size = sum(fill(entry.child) for entry in node.entries)
            cache[id(node)] = size
            return size

        if self._root is not None:
            fill(self._root)
        self._subtree_count_cache = cache
        return cache

    def _invalidate_caches(self) -> None:
        self._subtree_count_cache = None

    def delete(self, obj: Any, oid: Optional[int] = None) -> bool:
        """Delete one object; returns True if something was removed.

        With ``oid`` given, only the entry with that oid is removed;
        otherwise the first entry whose object is at distance 0 from
        ``obj`` goes.  Nodes on the path left with fewer entries than the
        layout minimum are dissolved bottom-up, and their remaining
        entries re-inserted once the walk is done — the standard condense
        step; covering radii of ancestors are upper bounds and stay valid
        (they may become loose, never wrong).
        """
        if self._root is None:
            return False
        path = self._find_entry(self._root, obj, oid)
        if path is None:
            return False
        # Take the path top-down, then remove and dissolve bottom-up.
        node = self._writable(self._root)
        ancestors: List[Tuple[Node, RoutingEntry]] = []
        for index in path[:-1]:
            entry = node.entries[index]
            ancestors.append((node, entry))
            node = self._writable(entry.child, node, entry)
        node.remove(node.entries[path[-1]])
        self._n_objects -= 1
        # Re-inserting only after the walk keeps the path intact while it
        # is walked: a re-insertion can split a node on it.
        orphans: List[Any] = []
        for parent, entry in reversed(ancestors):
            child = entry.child
            # The only child of a node is kept: the root collapse below
            # deals with such chains.
            if len(child.entries) >= self._min_entries(child) or len(
                parent.entries
            ) <= 1:
                continue
            parent.remove(entry)
            orphans.extend(child.entries)
        for orphan in orphans:
            if isinstance(orphan, LeafEntry):
                self._n_objects -= 1  # insert() re-adds it
                self.insert(orphan.obj, orphan.oid)
            else:
                # Re-attach a routing entry under the best remaining sibling.
                self._reattach_subtree(orphan)
        self._invalidate_caches()
        # Collapse a root left with a single child.
        while (
            self._root is not None
            and not self._root.is_leaf
            and len(self._root.entries) == 1
        ):
            self._root = self._root.entries[0].child
        if self._root is not None and len(self._root.entries) == 0:
            self._root = None
        return True

    def _find_entry(
        self, node: Node, obj: Any, oid: Optional[int]
    ) -> Optional[List[int]]:
        """The entry indices from ``node`` down to the first leaf entry
        to delete (depth first, under the balls that cover ``obj``), or
        None; writes nothing."""
        if node.is_leaf:
            for index, entry in enumerate(node.entries):
                if oid is not None and entry.oid != oid:
                    continue
                if self.metric.distance(obj, entry.obj) > 0:
                    continue
                return [index]
            return None
        for index, entry in enumerate(node.entries):
            # The target can only live under entries whose ball covers it.
            if self.metric.distance(obj, entry.obj) > entry.radius:
                continue
            below = self._find_entry(entry.child, obj, oid)
            if below is not None:
                return [index] + below
        return None

    def _reattach_subtree(self, orphan: RoutingEntry) -> None:
        """Re-insert a whole subtree at the appropriate level."""
        target_level = orphan.child.height()
        assert self._root is not None
        node = self._writable(self._root)
        path: List[Tuple[Node, RoutingEntry]] = []
        while not node.is_leaf and node.height() > target_level + 1:
            best = min(
                (
                    entry
                    for entry in node.entries
                    if isinstance(entry, RoutingEntry)
                ),
                key=lambda entry: self.metric.distance(orphan.obj, entry.obj),
            )
            dist = self.metric.distance(orphan.obj, best.obj)
            node.set_radius(best, max(best.radius, dist + orphan.radius))
            path.append((node, best))
            node = self._writable(best.child, node, best)
        node.add(orphan)
        node.set_parent_distance(
            orphan,
            self.metric.distance(orphan.obj, path[-1][1].obj) if path else 0.0,
        )
        # Split overflow propagation from an arbitrary point: split via the
        # standard path, and go on up while the parent overflows in turn.
        while len(node.entries) > self._capacity(node):
            split = split_entries(
                node.entries,
                self.metric,
                self._min_entries(node),
                policy=self.split_policy,
                rng=self._rng,
            )
            if not path:  # the root
                self._grow_root(split)
                break
            parent, parent_entry = path.pop()
            grandparent_obj = path[-1][1].obj if path else None
            self._apply_child_split(parent, parent_entry, split, grandparent_obj)
            node = parent

    def complex_range_query(
        self,
        predicates: Sequence[Tuple[Any, float]],
        mode: str = "and",
    ) -> RangeResult:
        """A complex similarity query: conjunction or disjunction of range
        predicates over the same metric (the paper's §6 / EDBT'98 line).

        ``predicates`` is a list of ``(query_object, radius)`` pairs.  With
        ``mode="and"`` an object qualifies iff it satisfies *every*
        predicate; a node is descended iff its region intersects every
        query ball.  With ``mode="or"`` either suffices.

        All predicate distances of a scanned entry are computed (no
        short-circuiting), mirroring the cost model's footnote-2-style
        assumption; ``dists_computed`` therefore equals ``p`` times the
        number of scanned entries for ``p`` predicates.
        """
        if mode not in ("and", "or"):
            raise InvalidParameterError(
                f"mode must be 'and' or 'or', got {mode!r}"
            )
        if not predicates:
            raise InvalidParameterError("need at least one predicate")
        for _query, radius in predicates:
            if not (radius >= 0):
                raise InvalidParameterError(
                    f"radius must be >= 0, got {radius}"
                )
        return self._scan_levels("complex", predicates, mode=mode)[0]

    # ------------------------------------------------------------------
    # Introspection / validation
    # ------------------------------------------------------------------

    def iter_objects(self) -> Iterable[Tuple[int, Any]]:
        """Yield every stored ``(oid, object)`` (every reachable leaf
        entry, whatever kind of node holds it)."""
        for node in self.iter_nodes():
            for entry in node.entries:
                if isinstance(entry, LeafEntry):
                    yield entry.oid, entry.obj

    def validate(self) -> None:
        """Check structural invariants; raises AssertionError on violation.

        The invariants are exactly those of
        :func:`~repro.reliability.fsck_mtree` (containment, parent
        distances, entry types, capacities, balance, accounting), plus
        two the fsck cannot see: every cached kernel block
        (:meth:`Node.block`) equals ``metric.encode`` of the node's
        current objects, and every built column (:attr:`Node.radii`,
        :attr:`Node.oids`, :attr:`Node.objects`,
        :attr:`Node.parent_distances`, :attr:`Node.children`) matches the
        node's current entries.
        """
        from ..reliability.fsck import fsck_mtree

        report = fsck_mtree(self)
        assert report.ok, report.render()
        for node in self.iter_nodes():
            block = node.cached_block(self.metric)
            if block is not None:
                fresh = self.metric.encode([entry.obj for entry in node.entries])
                assert _same_block(block, fresh), "stale kernel block"
            assert node.columns_current(), "stale node columns"
