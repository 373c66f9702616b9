"""M-tree nodes.

A node is a fixed-capacity page of entries: :class:`~repro.mtree.entries.
LeafEntry` in leaves, :class:`~repro.mtree.entries.RoutingEntry` in internal
nodes.  Nodes carry no parent pointers — the tree recurses top-down and
splits propagate through return values, keeping the structure simple and
cycle-free.
"""

from __future__ import annotations

import operator
from typing import Any, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .entries import LeafEntry, RoutingEntry

__all__ = ["Node"]

Entry = Union[LeafEntry, RoutingEntry]


_RADIUS = operator.attrgetter("radius")
_OID = operator.attrgetter("oid")
_OBJ = operator.attrgetter("obj")
_PARENT_DISTANCE = operator.attrgetter("dist_to_parent")
_CHILD = operator.attrgetter("child")


def _column(entries: Sequence[Entry], get: Any, dtype: Any) -> np.ndarray:
    """One attribute of every entry as a read-only array."""
    column = np.fromiter(map(get, entries), dtype, len(entries))
    column.flags.writeable = False
    return column


def _same_column(
    column: Optional[np.ndarray], entries: Sequence[Entry], get: Any
) -> bool:
    """Whether a column, if built, holds the entries' current values."""
    return column is None or np.array_equal(
        column, np.array(list(map(get, entries)), dtype=column.dtype),
        equal_nan=column.dtype.kind == "f",
    )


def _same_objects(
    column: Optional[Tuple[Any, ...]], entries: Sequence[Entry], get: Any
) -> bool:
    """Whether an object column, if built, holds the very objects the
    entries hold."""
    return column is None or (
        len(column) == len(entries)
        and all(a is get(entry) for a, entry in zip(column, entries))
    )


class Node:
    """One page of the M-tree.

    ``entries`` is a read-only tuple; :meth:`add`, :meth:`remove` and
    :meth:`replace` are the only ways to change it, and
    :meth:`set_radius` / :meth:`set_parent_distance` /
    :meth:`set_child` the only ways to change an entry's covering
    radius, parent distance or child.  The node
    caches its entries in the forms a search reads, each built lazily
    on first use:

    * :meth:`block`: the objects in the metric's kernel input form
      (:meth:`~repro.metrics.Metric.encode`);
    * columns: :attr:`radii` (internal) or :attr:`oids` and
      :attr:`objects` (leaf), and :attr:`parent_distances`;
    * :attr:`children` (internal).

    A snapshot load installs the block and columns it decoded with
    :meth:`seed_caches` instead.  Every mutator drops what it may have
    made stale (the radius, parent-distance and child mutators drop only
    their own column), so the caches always describe the current
    entries.  Only the mutators
    may write an entry's ``radius``, ``dist_to_parent`` or ``child``: a
    direct write leaves the columns stale, which
    :meth:`~repro.mtree.MTree.validate` reports.

    ``owner`` is the write token of the tree that may write the node in
    place (``None``, the token of a tree never cloned, for nodes built
    by bulk load, a snapshot load or such a tree).  A tree writes only
    to nodes stamped with its own token and replaces any other node on
    its way by a :meth:`copy` first (see :meth:`~repro.mtree.MTree.
    clone`), so nodes shared between a tree and its clones are never
    written.

    Two readers that build a missing cache at the same time build equal
    immutable values and store one of them with a single reference
    assignment, so the race is harmless.  A mutator must not run
    concurrently with readers of the same node; the ingest layer writes
    only nodes its private clone copied, which no reader can reach
    until it publishes the clone.
    """

    __slots__ = (
        "is_leaf",
        "owner",
        "_entries",
        "_cache",
        "_radii",
        "_oids",
        "_objects",
        "_parents",
        "_children",
    )

    def __init__(self, is_leaf: bool, owner: Optional[object] = None):
        self.is_leaf = is_leaf
        self.owner = owner
        self._entries: Tuple[Entry, ...] = ()
        # (metric, block) in one slot, so readers see a consistent pair;
        # keyed by the metric, so one metric never gets another's block.
        self._cache: Optional[Tuple[Any, Sequence[Any]]] = None
        self._radii: Optional[np.ndarray] = None
        self._oids: Optional[np.ndarray] = None
        self._objects: Optional[Tuple[Any, ...]] = None
        self._parents: Optional[np.ndarray] = None
        self._children: Optional[Tuple["Node", ...]] = None

    @property
    def entries(self) -> Tuple[Entry, ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, entry: Entry) -> None:
        self.replace(self._entries + (entry,))

    def remove(self, entry: Entry) -> None:
        entries = list(self._entries)
        entries.remove(entry)
        self.replace(entries)

    def replace(self, entries: Iterable[Entry]) -> None:
        self._entries = tuple(entries)
        self._cache = None
        self._radii = self._oids = self._objects = self._parents = None
        self._children = None

    def set_radius(self, entry: RoutingEntry, radius: float) -> None:
        """Rewrite one of this node's covering radii."""
        entry.radius = radius
        self._radii = None

    def set_parent_distance(self, entry: Entry, dist: float) -> None:
        """Rewrite one of this node's stored parent distances."""
        entry.dist_to_parent = dist
        self._parents = None

    def set_child(self, entry: RoutingEntry, child: "Node") -> None:
        """Re-point one of this node's routing entries at ``child``."""
        entry.child = child
        self._children = None

    def seed_caches(
        self,
        metric: Any = None,
        block: Optional[Sequence[Any]] = None,
        *,
        radii: Optional[np.ndarray] = None,
        oids: Optional[np.ndarray] = None,
        parent_distances: Optional[np.ndarray] = None,
    ) -> None:
        """Install caches built elsewhere for the current entries: a
        snapshot load decodes them as arrays, so the first query after it
        builds nothing.  ``block`` becomes the block for ``metric``; the
        arrays become the columns and should be read-only.  The caller
        vouches that each describes the entries, as
        :meth:`~repro.mtree.MTree.validate` checks."""
        if block is not None:
            self._cache = (metric, block)
        if radii is not None:
            self._radii = radii
        if oids is not None:
            self._oids = oids
        if parent_distances is not None:
            self._parents = parent_distances

    def block(self, metric: Any) -> Sequence[Any]:
        """The entries' objects encoded by ``metric.encode``, cached."""
        block = self.cached_block(metric)
        if block is None:
            block = metric.encode([entry.obj for entry in self._entries])
            self._cache = (metric, block)
        return block

    def cached_block(self, metric: Any) -> Optional[Sequence[Any]]:
        """The block cached for ``metric``, or None (builds nothing)."""
        cache = self._cache
        return cache[1] if cache is not None and cache[0] is metric else None

    @property
    def radii(self) -> np.ndarray:
        """An internal node's covering radii (float64, read-only)."""
        radii = self._radii
        if radii is None:
            radii = self._radii = _column(self._entries, _RADIUS, np.float64)
        return radii

    @property
    def oids(self) -> np.ndarray:
        """A leaf's object ids (int64, read-only)."""
        oids = self._oids
        if oids is None:
            oids = self._oids = _column(self._entries, _OID, np.int64)
        return oids

    @property
    def objects(self) -> Tuple[Any, ...]:
        """A leaf's objects, in entry order."""
        objects = self._objects
        if objects is None:
            objects = self._objects = tuple(map(_OBJ, self._entries))
        return objects

    @property
    def parent_distances(self) -> np.ndarray:
        """The entries' stored distances to the parent routing object
        (float64, read-only)."""
        parents = self._parents
        if parents is None:
            parents = self._parents = _column(
                self._entries, _PARENT_DISTANCE, np.float64
            )
        return parents

    @property
    def children(self) -> Tuple["Node", ...]:
        """An internal node's child nodes, in entry order."""
        children = self._children
        if children is None:
            children = self._children = tuple(map(_CHILD, self._entries))
        return children

    def columns_current(self) -> bool:
        """Whether the built columns and children (if any) still describe
        the entries; builds nothing into the caches."""
        entries = self._entries
        return (
            _same_column(self._radii, entries, _RADIUS)
            and _same_column(self._oids, entries, _OID)
            and _same_column(self._parents, entries, _PARENT_DISTANCE)
            and _same_objects(self._objects, entries, _OBJ)
            and _same_objects(self._children, entries, _CHILD)
        )

    def copy(self, owner: Optional[object]) -> "Node":
        """A node of the same kind, stamped ``owner``, sharing this node's
        cached block, columns and children, which are immutable.

        An internal copy holds copies of the routing entries, which a
        tree writes in place (radius, child); the copies point at the
        same children.  A leaf copy shares the leaf entries themselves:
        a tree that has been cloned never writes a leaf entry in place
        (a split moves copies, see :meth:`~repro.mtree.MTree.clone`).
        """
        twin = Node(self.is_leaf, owner)
        if self.is_leaf:
            twin._entries = self._entries
        else:
            twin._entries = tuple([entry.copy() for entry in self._entries])
        twin._cache = self._cache
        twin._radii = self._radii
        twin._oids = self._oids
        twin._objects = self._objects
        twin._parents = self._parents
        twin._children = self._children
        return twin

    def subtree_size(self) -> int:
        """Number of database objects stored under this node."""
        if self.is_leaf:
            return len(self._entries)
        return sum(entry.child.subtree_size() for entry in self._entries)

    def height(self) -> int:
        """Levels below and including this node (leaf = 1)."""
        if self.is_leaf:
            return 1
        return 1 + max(entry.child.height() for entry in self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "leaf" if self.is_leaf else "internal"
        return f"Node({kind}, entries={len(self._entries)})"
