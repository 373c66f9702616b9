"""M-tree nodes.

A node is a fixed-capacity page of entries: :class:`~repro.mtree.entries.
LeafEntry` in leaves, :class:`~repro.mtree.entries.RoutingEntry` in internal
nodes.  Nodes carry no parent pointers — the tree recurses top-down and
splits propagate through return values, keeping the structure simple and
cycle-free.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, Tuple, Union

from .entries import LeafEntry, RoutingEntry

__all__ = ["Node"]

Entry = Union[LeafEntry, RoutingEntry]


class Node:
    """One page of the M-tree.

    ``entries`` is a read-only tuple; :meth:`add`, :meth:`remove` and
    :meth:`replace` are the only ways to change it.  The node also caches
    its entries' objects in the metric's kernel input form
    (:meth:`block`, built lazily by :meth:`~repro.metrics.Metric.encode`),
    and each of the three mutators drops that cache, so the block always
    encodes the current entries.  Covering radii and parent distances are
    not cached: they may be rewritten in place on the entries.

    Two readers that build a missing block at the same time both encode
    the same entries into equal immutable blocks and store one of them
    with a single reference assignment, so the race is harmless.  A
    mutator must not run concurrently with readers of the same node (the
    ingest layer mutates a private clone and then publishes it).
    """

    __slots__ = ("is_leaf", "_entries", "_cache")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self._entries: Tuple[Entry, ...] = ()
        # (metric, block) in one slot, so readers see a consistent pair;
        # keyed by the metric, so one metric never gets another's block.
        self._cache: Optional[Tuple[Any, Sequence[Any]]] = None

    @property
    def entries(self) -> Tuple[Entry, ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, entry: Entry) -> None:
        self._entries += (entry,)
        self._cache = None

    def remove(self, entry: Entry) -> None:
        entries = list(self._entries)
        entries.remove(entry)
        self.replace(entries)

    def replace(self, entries: Iterable[Entry]) -> None:
        self._entries = tuple(entries)
        self._cache = None

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

    def copy(self, entries: Iterable[Entry]) -> "Node":
        """A node of the same kind holding ``entries`` and sharing this
        node's cached block.

        ``entries`` must hold the same objects in the same order (copies
        of this node's entries, say); blocks are immutable, so sharing
        one is safe.
        """
        twin = Node(self.is_leaf)
        twin._entries = tuple(entries)
        twin._cache = self._cache
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
