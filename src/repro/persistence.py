"""Serialisation of histograms, statistics and trees.

A cost-model deployment wants to ship the distance histogram and the tree
statistics to a query optimiser without shipping the index itself; and an
index built once (bulk loading 10^5 objects is minutes in pure Python)
should be reloadable.  This module provides JSON round-trips for:

* :class:`~repro.core.histogram.DistanceHistogram`
* N-MCM / L-MCM statistics (:class:`NodeStat` / :class:`LevelStat`)
* the full :class:`~repro.mtree.MTree` (structure + objects)
* the full :class:`~repro.vptree.VPTree`

Objects are encoded by a codec: numpy vectors become lists tagged
``{"t": "vec", "v": [...]}``, strings pass through tagged ``{"t": "str"}``.
Custom domains can supply their own ``encode``/``decode`` callables.

Durability (see ``docs/robustness.md``): every ``save_*`` writes a
CRC32-checksummed envelope (:mod:`repro.reliability.integrity`)
atomically — to a temp file in the target directory, then
``os.replace`` — so a crash mid-save never leaves a torn artifact, and a
flipped bit is caught (and localised) on load.  Every ``load_*`` accepts
an optional :class:`~repro.reliability.RetryPolicy` to survive transient
read faults, and every decode path validates the artifact's ``version``.
Legacy unchecksummed files remain loadable.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from .core.histogram import DistanceHistogram
from .core.mtree_model import LevelStat, NodeStat
from .exceptions import FormatVersionError, InvalidParameterError
from .metrics import Metric
from .mtree import MTree, NodeLayout
from .mtree.entries import LeafEntry, RoutingEntry
from .mtree.node import Node
from .reliability.integrity import dumps_artifact, loads_artifact
from .reliability.retry import RetryPolicy
from .vptree import VPNode, VPTree

__all__ = [
    "histogram_to_dict",
    "histogram_from_dict",
    "save_histogram",
    "load_histogram",
    "stats_to_dict",
    "stats_from_dict",
    "save_stats",
    "load_stats",
    "mtree_to_dict",
    "mtree_from_dict",
    "save_mtree",
    "load_mtree",
    "vptree_to_dict",
    "vptree_from_dict",
    "save_vptree",
    "load_vptree",
]

Encoder = Callable[[Any], Any]
Decoder = Callable[[Any], Any]
PathLike = Union[str, Path]

FORMAT_VERSION = 1


def _atomic_write_text(path: PathLike, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp + ``os.replace``.

    ``os.replace`` is atomic on POSIX and Windows, so readers see either
    the old artifact or the complete new one — never a torn file.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent or Path("."), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _save_artifact(payload: Dict[str, Any], path: PathLike) -> None:
    _atomic_write_text(path, dumps_artifact(payload))


def _load_artifact(
    path: PathLike,
    retry: Optional[RetryPolicy] = None,
    strict: bool = False,
) -> Dict[str, Any]:
    path = Path(path)
    read = path.read_text if retry is None else (
        lambda: retry.call(path.read_text)
    )
    return loads_artifact(read(), source=str(path), strict=strict)


def _require_version(
    payload: Dict[str, Any], what: str, expected: int = FORMAT_VERSION
) -> None:
    found = payload.get("version")
    if found != expected:
        raise FormatVersionError(
            f"cannot read {what} artifact: expected version {expected}, "
            f"found {found!r}"
        )


def _default_encode(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        return {"t": "vec", "v": obj.tolist()}
    if isinstance(obj, str):
        return {"t": "str", "v": obj}
    if isinstance(obj, (list, tuple)) and all(
        isinstance(x, (int, float)) for x in obj
    ):
        return {"t": "vec", "v": list(obj)}
    raise InvalidParameterError(
        f"no default encoding for object of type {type(obj).__name__}; "
        "pass a custom encoder"
    )


def _default_decode(payload: Any) -> Any:
    kind = payload.get("t")
    if kind == "vec":
        return np.asarray(payload["v"], dtype=np.float64)
    if kind == "str":
        return payload["v"]
    raise InvalidParameterError(f"unknown encoded object kind {kind!r}")


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------


def histogram_to_dict(hist: DistanceHistogram) -> Dict[str, Any]:
    """JSON-ready representation of a distance histogram."""
    return {
        "version": FORMAT_VERSION,
        "kind": "distance-histogram",
        "d_plus": hist.d_plus,
        "bin_probs": hist.bin_probs.tolist(),
    }


def histogram_from_dict(payload: Dict[str, Any]) -> DistanceHistogram:
    """Inverse of :func:`histogram_to_dict`."""
    if payload.get("kind") != "distance-histogram":
        raise InvalidParameterError(
            f"not a histogram payload: kind={payload.get('kind')!r}"
        )
    _require_version(payload, "histogram")
    return DistanceHistogram(payload["bin_probs"], payload["d_plus"])


def save_histogram(hist: DistanceHistogram, path: PathLike) -> None:
    """Atomically write a checksummed histogram artifact."""
    _save_artifact(histogram_to_dict(hist), path)


def load_histogram(
    path: PathLike,
    retry: Optional[RetryPolicy] = None,
    strict: bool = False,
) -> DistanceHistogram:
    """Read a histogram artifact, verifying its checksums.

    ``strict=True`` rejects legacy unchecksummed files (see
    :func:`~repro.reliability.loads_artifact`).
    """
    return histogram_from_dict(_load_artifact(path, retry, strict))


# ---------------------------------------------------------------------------
# Cost-model statistics
# ---------------------------------------------------------------------------


def stats_to_dict(
    node_stats: Optional[List[NodeStat]] = None,
    level_stats: Optional[List[LevelStat]] = None,
    n_objects: Optional[int] = None,
) -> Dict[str, Any]:
    """Bundle N-MCM / L-MCM statistics for shipping to an optimiser."""
    payload: Dict[str, Any] = {
        "version": FORMAT_VERSION,
        "kind": "mtree-stats",
    }
    if n_objects is not None:
        payload["n_objects"] = n_objects
    if node_stats is not None:
        payload["node_stats"] = [
            [s.radius, s.n_entries, s.level] for s in node_stats
        ]
    if level_stats is not None:
        payload["level_stats"] = [
            [s.level, s.n_nodes, s.avg_radius] for s in level_stats
        ]
    return payload


def stats_from_dict(payload: Dict[str, Any]):
    """Inverse of :func:`stats_to_dict`.

    Returns ``(node_stats or None, level_stats or None, n_objects or
    None)``.
    """
    if payload.get("kind") != "mtree-stats":
        raise InvalidParameterError(
            f"not a stats payload: kind={payload.get('kind')!r}"
        )
    _require_version(payload, "mtree-stats")
    node_stats = None
    if "node_stats" in payload:
        node_stats = [
            NodeStat(radius=r, n_entries=int(e), level=int(lv))
            for r, e, lv in payload["node_stats"]
        ]
    level_stats = None
    if "level_stats" in payload:
        level_stats = [
            LevelStat(level=int(lv), n_nodes=int(m), avg_radius=r)
            for lv, m, r in payload["level_stats"]
        ]
    return node_stats, level_stats, payload.get("n_objects")


def save_stats(
    path: PathLike,
    node_stats: Optional[List[NodeStat]] = None,
    level_stats: Optional[List[LevelStat]] = None,
    n_objects: Optional[int] = None,
) -> None:
    """Atomically write a checksummed N-MCM / L-MCM statistics artifact."""
    _save_artifact(stats_to_dict(node_stats, level_stats, n_objects), path)


def load_stats(
    path: PathLike,
    retry: Optional[RetryPolicy] = None,
    strict: bool = False,
):
    """Read a statistics artifact, verifying its checksums.

    Returns ``(node_stats or None, level_stats or None, n_objects or
    None)`` exactly like :func:`stats_from_dict`.  ``strict=True``
    rejects legacy unchecksummed files.
    """
    return stats_from_dict(_load_artifact(path, retry, strict))


# ---------------------------------------------------------------------------
# M-tree
# ---------------------------------------------------------------------------


def _encode_node(node: Node, encode: Encoder) -> Dict[str, Any]:
    if node.is_leaf:
        return {
            "leaf": True,
            "entries": [
                {
                    "obj": encode(entry.obj),
                    "oid": entry.oid,
                    "dp": entry.dist_to_parent,
                }
                for entry in node.entries
            ],
        }
    return {
        "leaf": False,
        "entries": [
            {
                "obj": encode(entry.obj),
                "radius": entry.radius,
                "dp": entry.dist_to_parent,
                "child": _encode_node(entry.child, encode),
            }
            for entry in node.entries
        ],
    }


def _decode_node(payload: Dict[str, Any], decode: Decoder) -> Node:
    node = Node(is_leaf=payload["leaf"])
    if payload["leaf"]:
        node.replace([
            LeafEntry(decode(entry["obj"]), int(entry["oid"]), entry["dp"])
            for entry in payload["entries"]
        ])
    else:
        node.replace([
            RoutingEntry(
                decode(entry["obj"]),
                entry["radius"],
                _decode_node(entry["child"], decode),
                entry["dp"],
            )
            for entry in payload["entries"]
        ])
    return node


def mtree_to_dict(
    tree: MTree, encode: Encoder = _default_encode
) -> Dict[str, Any]:
    """JSON-ready representation of an M-tree (structure + objects)."""
    payload: Dict[str, Any] = {
        "version": FORMAT_VERSION,
        "kind": "mtree",
        "layout": {
            "node_size_bytes": tree.layout.node_size_bytes,
            "object_bytes": tree.layout.object_bytes,
            "min_utilization": tree.layout.min_utilization,
        },
        "split_policy": tree.split_policy,
        "n_objects": len(tree),
    }
    if tree.root is not None:
        payload["root"] = _encode_node(tree.root, encode)
    return payload


def mtree_from_dict(
    payload: Dict[str, Any],
    metric: Metric,
    decode: Decoder = _default_decode,
) -> MTree:
    """Inverse of :func:`mtree_to_dict` (the metric is not serialised)."""
    if payload.get("kind") != "mtree":
        raise InvalidParameterError(
            f"not an M-tree payload: kind={payload.get('kind')!r}"
        )
    _require_version(payload, "mtree")
    layout = NodeLayout(
        node_size_bytes=payload["layout"]["node_size_bytes"],
        object_bytes=payload["layout"]["object_bytes"],
        min_utilization=payload["layout"]["min_utilization"],
    )
    tree = MTree(metric, layout, split_policy=payload["split_policy"])
    if "root" in payload:
        root = _decode_node(payload["root"], decode)
        tree._adopt_root(root, payload["n_objects"])
    return tree


def save_mtree(
    tree: MTree, path: PathLike, encode: Encoder = _default_encode
) -> None:
    """Atomically write a checksummed M-tree artifact."""
    _save_artifact(mtree_to_dict(tree, encode), path)


def load_mtree(
    path: PathLike,
    metric: Metric,
    decode: Decoder = _default_decode,
    retry: Optional[RetryPolicy] = None,
    strict: bool = False,
) -> MTree:
    """Read an M-tree artifact, verifying its checksums (``strict=True``
    rejects legacy unchecksummed files)."""
    return mtree_from_dict(_load_artifact(path, retry, strict), metric, decode)


# ---------------------------------------------------------------------------
# vp-tree
# ---------------------------------------------------------------------------


def _encode_vpnode(node: VPNode, encode: Encoder) -> Dict[str, Any]:
    return {
        "obj": encode(node.obj),
        "oid": node.oid,
        "cutoffs": list(node.cutoffs),
        "children": [
            _encode_vpnode(child, encode) if child is not None else None
            for child in node.children
        ],
    }


def _decode_vpnode(payload: Dict[str, Any], decode: Decoder) -> VPNode:
    node = VPNode(decode(payload["obj"]), int(payload["oid"]))
    node.cutoffs = [float(c) for c in payload["cutoffs"]]
    node.children = [
        _decode_vpnode(child, decode) if child is not None else None
        for child in payload["children"]
    ]
    return node


def vptree_to_dict(
    tree: VPTree, encode: Encoder = _default_encode
) -> Dict[str, Any]:
    """JSON-ready representation of a vp-tree."""
    payload: Dict[str, Any] = {
        "version": FORMAT_VERSION,
        "kind": "vptree",
        "arity": tree.arity,
        "vantage_selection": tree.vantage_selection,
        "n_objects": len(tree),
    }
    if tree.root is not None:
        payload["root"] = _encode_vpnode(tree.root, encode)
    return payload


def vptree_from_dict(
    payload: Dict[str, Any],
    metric: Metric,
    decode: Decoder = _default_decode,
) -> VPTree:
    """Inverse of :func:`vptree_to_dict`."""
    if payload.get("kind") != "vptree":
        raise InvalidParameterError(
            f"not a vp-tree payload: kind={payload.get('kind')!r}"
        )
    _require_version(payload, "vptree")
    tree = VPTree(
        metric,
        arity=payload["arity"],
        vantage_selection=payload["vantage_selection"],
    )
    if "root" in payload:
        tree._root = _decode_vpnode(payload["root"], decode)
        tree._n_objects = payload["n_objects"]
    return tree


def save_vptree(
    tree: VPTree, path: PathLike, encode: Encoder = _default_encode
) -> None:
    """Atomically write a checksummed vp-tree artifact."""
    _save_artifact(vptree_to_dict(tree, encode), path)


def load_vptree(
    path: PathLike,
    metric: Metric,
    decode: Decoder = _default_decode,
    retry: Optional[RetryPolicy] = None,
    strict: bool = False,
) -> VPTree:
    """Read a vp-tree artifact, verifying its checksums (``strict=True``
    rejects legacy unchecksummed files)."""
    return vptree_from_dict(
        _load_artifact(path, retry, strict), metric, decode
    )
