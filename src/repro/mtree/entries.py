"""M-tree node entries.

Leaf entries hold ``[O_i, oid(O_i)]``; internal (routing) entries hold
``[O_r, r(N_r), ptr(N_r)]`` (Section 1.1 of the paper).  Both additionally
carry the distance to the parent routing object, which enables the VLDB'97
pruning optimisation (excluded from the cost model per footnote 2, but
implemented so the library is a complete M-tree).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..exceptions import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .node import Node

__all__ = ["LeafEntry", "RoutingEntry"]


class LeafEntry:
    """A database object stored in a leaf."""

    __slots__ = ("obj", "oid", "dist_to_parent")

    def __init__(self, obj: Any, oid: int, dist_to_parent: float = 0.0):
        self.obj = obj
        self.oid = oid
        self.dist_to_parent = dist_to_parent

    def copy(self) -> "LeafEntry":
        return LeafEntry(self.obj, self.oid, self.dist_to_parent)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LeafEntry(oid={self.oid})"


class RoutingEntry:
    """A routing object with covering radius and child pointer."""

    __slots__ = ("obj", "radius", "child", "dist_to_parent")

    def __init__(
        self,
        obj: Any,
        radius: float,
        child: "Node",
        dist_to_parent: float = 0.0,
    ):
        if not (radius >= 0):
            raise InvalidParameterError(
                f"covering radius must be >= 0, got {radius}"
            )
        self.obj = obj
        self.radius = radius
        self.child = child
        self.dist_to_parent = dist_to_parent

    def copy(self) -> "RoutingEntry":
        """A copy pointing at the same child."""
        return RoutingEntry(self.obj, self.radius, self.child, self.dist_to_parent)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RoutingEntry(radius={self.radius:.4g})"
