"""Byte-accurate node layout: from node size to fanout.

The paper's experiments are parameterised by *node size in bytes* (4 KB for
the validation runs, a [0.5, 64] KB sweep for the tuning study of
Section 4.1).  To make those numbers meaningful, capacity is derived from an
explicit on-page entry encoding:

* leaf entry  ``[O_i, oid(O_i)]``          -> object + oid + dist-to-parent
* internal    ``[O_r, r(N_r), ptr(N_r)]``  -> object + radius + pointer
  + dist-to-parent

Objects are encoded by a fixed ``object_bytes`` (e.g. ``4 * D`` for a vector
of float32 coordinates, or the maximum word length for strings — M-tree
pages are fixed-size, so variable-length objects reserve their maximum).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import CapacityError, InvalidParameterError

__all__ = ["NodeLayout", "vector_layout", "string_layout"]

#: Encoding sizes (bytes) for the bookkeeping fields of an entry.
OID_BYTES = 4
RADIUS_BYTES = 4
POINTER_BYTES = 4
PARENT_DISTANCE_BYTES = 4
#: Per-node header: entry count + leaf flag + padding.
NODE_HEADER_BYTES = 8


@dataclass(frozen=True)
class NodeLayout:
    """Capacity model for fixed-size M-tree nodes.

    ``min_utilization`` is the bulk-loading minimum fill factor (the paper
    uses 30%); dynamic inserts may transiently go below it after splits,
    as in any B-tree-family structure.
    """

    node_size_bytes: int
    object_bytes: int
    min_utilization: float = 0.3

    def __post_init__(self) -> None:
        if self.node_size_bytes < 1:
            raise InvalidParameterError(
                f"node_size_bytes must be >= 1, got {self.node_size_bytes}"
            )
        if self.object_bytes < 1:
            raise InvalidParameterError(
                f"object_bytes must be >= 1, got {self.object_bytes}"
            )
        if not (0 <= self.min_utilization <= 0.5):
            raise InvalidParameterError(
                "min_utilization must lie in [0, 0.5], got "
                f"{self.min_utilization}"
            )
        # An internal node needs room for 3 entries: splitting the 3
        # routing entries that overflow a 2-entry node leaves a 1-entry
        # node, which fsck rejects as undersized.
        if self.leaf_capacity < 2 or self.internal_capacity < 3:
            needed = NODE_HEADER_BYTES + max(
                2 * self.leaf_entry_bytes, 3 * self.internal_entry_bytes
            )
            raise CapacityError(
                f"node size {self.node_size_bytes}B holds "
                f"{self.leaf_capacity} leaf and {self.internal_capacity} "
                f"internal entries for {self.object_bytes}B objects; an "
                f"M-tree needs at least 2 leaf and 3 internal entries, "
                f"so a node size of at least {needed}B"
            )

    @property
    def leaf_entry_bytes(self) -> int:
        return self.object_bytes + OID_BYTES + PARENT_DISTANCE_BYTES

    @property
    def internal_entry_bytes(self) -> int:
        return (
            self.object_bytes
            + RADIUS_BYTES
            + POINTER_BYTES
            + PARENT_DISTANCE_BYTES
        )

    @property
    def leaf_capacity(self) -> int:
        return (self.node_size_bytes - NODE_HEADER_BYTES) // self.leaf_entry_bytes

    @property
    def internal_capacity(self) -> int:
        return (
            self.node_size_bytes - NODE_HEADER_BYTES
        ) // self.internal_entry_bytes

    @property
    def leaf_min_entries(self) -> int:
        return max(1, int(self.leaf_capacity * self.min_utilization))

    @property
    def internal_min_entries(self) -> int:
        return max(1, int(self.internal_capacity * self.min_utilization))

    @property
    def node_size_kb(self) -> float:
        return self.node_size_bytes / 1024.0


def vector_layout(
    dim: int,
    node_size_bytes: int = 4096,
    bytes_per_coordinate: int = 4,
    min_utilization: float = 0.3,
) -> NodeLayout:
    """Layout for D-dimensional vectors of fixed-width coordinates."""
    if dim < 1:
        raise InvalidParameterError(f"dim must be >= 1, got {dim}")
    if bytes_per_coordinate < 1:
        raise InvalidParameterError(
            f"bytes_per_coordinate must be >= 1, got {bytes_per_coordinate}"
        )
    return NodeLayout(
        node_size_bytes=node_size_bytes,
        object_bytes=dim * bytes_per_coordinate,
        min_utilization=min_utilization,
    )


def string_layout(
    max_length: int,
    node_size_bytes: int = 4096,
    min_utilization: float = 0.3,
) -> NodeLayout:
    """Layout for strings of length up to ``max_length`` (1 byte/char)."""
    if max_length < 1:
        raise InvalidParameterError(
            f"max_length must be >= 1, got {max_length}"
        )
    return NodeLayout(
        node_size_bytes=node_size_bytes,
        object_bytes=max_length,
        min_utilization=min_utilization,
    )
