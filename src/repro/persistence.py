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

An M-tree document (version 2) is columnar: per node, the parent
distances, the oids (leaf) or covering radii (internal) and, when every
object is a numeric vector of one length and the codec is the
default, the objects themselves as one little-endian float64 ``(n, d)``
block, each as base64 of its raw bytes; other objects go through the
codec one by one.  Numbers round-trip bit for bit, and a reloaded node
arrives with its columns (and, for Minkowski metrics, its kernel block)
already built.  Version-1 M-tree documents (one JSON object per entry)
are still read, never written.

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

import base64
import binascii
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from .core.histogram import DistanceHistogram
from .core.mtree_model import LevelStat, NodeStat
from .exceptions import (
    CorruptedDataError,
    FormatVersionError,
    InvalidParameterError,
)
from .metrics import Metric
from .metrics.minkowski import MinkowskiMetric
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
#: The M-tree document version :func:`mtree_to_dict` writes; version 1
#: is still read.
MTREE_FORMAT_VERSION = 2


def _fsync_dir(directory: Path) -> None:
    """Flush directory metadata: a rename, create or unlink in
    ``directory`` survives a power loss only once this returns."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - not supported on this fs
        pass
    finally:
        os.close(fd)


def _atomic_write_text(path: PathLike, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp + ``os.replace``.

    ``os.replace`` is atomic on POSIX and Windows, so readers see either
    the old artifact or the complete new one — never a torn file.  The
    directory is fsynced after the replace, so the new artifact is
    durable before this returns: a later unlink elsewhere (the WAL prune
    after a checkpoint) cannot reach the disk ahead of it.
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
    _fsync_dir(path.parent)


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
    payload: Dict[str, Any], what: str, *expected: int
) -> int:
    """The payload's version, one of ``expected`` (default
    :data:`FORMAT_VERSION`); anything else raises
    :class:`FormatVersionError`."""
    expected = expected or (FORMAT_VERSION,)
    found = payload.get("version")
    if found not in expected or isinstance(found, bool):
        versions = " or ".join(str(version) for version in expected)
        raise FormatVersionError(
            f"cannot read {what} artifact: expected version {versions}, "
            f"found {found!r}"
        )
    return found


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


_F8 = np.dtype("<f8")
_I8 = np.dtype("<i8")


def _b64(values: Any, dtype: np.dtype) -> str:
    """``values`` as base64 of their raw ``dtype`` bytes."""
    raw = np.ascontiguousarray(values, dtype=dtype).tobytes()
    return base64.b64encode(raw).decode("ascii")


def _unb64(text: Any, dtype: np.dtype, count: int, what: str) -> np.ndarray:
    """The read-only array of ``count`` ``dtype`` items that ``text``
    holds; a malformed or mis-sized column raises
    :class:`CorruptedDataError`."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (binascii.Error, TypeError, ValueError) as exc:
        raise CorruptedDataError(
            f"M-tree node {what}: not base64 ({exc})"
        ) from exc
    if len(raw) != count * dtype.itemsize:
        raise CorruptedDataError(
            f"M-tree node {what}: {len(raw)} bytes, expected "
            f"{count} x {dtype.itemsize}"
        )
    return np.frombuffer(raw, dtype=dtype)


def _plain_rows(metric: Metric) -> bool:
    """Whether ``metric.encode`` of vectors is just their float64 matrix,
    so a cached block holds the objects' own values."""
    return type(metric).encode is MinkowskiMetric.encode


def _vector_block(node: Node, metric: Metric) -> Optional[np.ndarray]:
    """The node's objects as one float64 ``(n, d)`` matrix when they are
    numeric vectors of one length (what the default codec writes as
    ``"vec"``): the cached kernel block where it is that matrix, else
    the rows stacked once.  None otherwise, and for an empty node."""
    objects = node.objects
    if not objects:
        return None
    block = node.cached_block(metric)
    if block is not None and _plain_rows(metric):
        return block
    try:
        rows = np.asarray(objects)
    except (ValueError, TypeError):  # ragged, or not numbers at all
        return None
    if rows.ndim != 2 or rows.dtype.kind not in "biuf":
        return None
    return rows.astype(np.float64, copy=False)


def _encode_node(node: Node, metric: Metric, encode: Encoder) -> Dict[str, Any]:
    """One node of a version-2 document, its subtree included."""
    doc: Dict[str, Any] = {
        "leaf": node.is_leaf,
        "n": len(node),
        "dp": _b64(node.parent_distances, _F8),
    }
    if node.is_leaf:
        doc["oids"] = _b64(node.oids, _I8)
    else:
        doc["radii"] = _b64(node.radii, _F8)
    block = _vector_block(node, metric) if encode is _default_encode else None
    if block is not None:
        doc["d"] = block.shape[1]
        doc["block"] = _b64(block, _F8)
    else:
        doc["objs"] = [encode(obj) for obj in node.objects]
    if not node.is_leaf:
        doc["children"] = [
            _encode_node(child, metric, encode) for child in node.children
        ]
    return doc


def _decode_node(
    doc: Dict[str, Any], metric: Metric, decode: Decoder
) -> Node:
    """Inverse of :func:`_encode_node`, with the node's caches seeded."""
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise CorruptedDataError(f"M-tree node size {n!r} is not a count")
    parents = _unb64(doc["dp"], _F8, n, "parent distances")
    block: Optional[np.ndarray] = None
    if "block" in doc:
        width = doc["d"]
        if not isinstance(width, int) or isinstance(width, bool) or width < 0:
            raise CorruptedDataError(
                f"M-tree node block width {width!r} is not a count"
            )
        block = _unb64(doc["block"], _F8, n * width, "object block")
        block = block.reshape(n, width)
        objects: List[Any] = list(block)
    else:
        objects = [decode(obj) for obj in doc["objs"]]
        if len(objects) != n:
            raise CorruptedDataError(
                f"M-tree node holds {len(objects)} objects, expected {n}"
            )
    if not isinstance(doc["leaf"], bool):
        raise CorruptedDataError(f"M-tree node kind {doc['leaf']!r}")
    node = Node(is_leaf=doc["leaf"])
    if node.is_leaf:
        oids = _unb64(doc["oids"], _I8, n, "oids")
        node.replace(map(LeafEntry, objects, oids.tolist(), parents.tolist()))
        columns: Dict[str, np.ndarray] = {"oids": oids}
    else:
        radii = _unb64(doc["radii"], _F8, n, "radii")
        children = doc["children"]
        if len(children) != n:
            raise CorruptedDataError(
                f"M-tree node holds {len(children)} children, expected {n}"
            )
        node.replace(
            RoutingEntry(obj, radius, _decode_node(child, metric, decode), dp)
            for obj, radius, child, dp in zip(
                objects, radii.tolist(), children, parents.tolist()
            )
        )
        columns = {"radii": radii}
    if not _plain_rows(metric):
        block = None  # the metric's block form is not the raw rows
    node.seed_caches(metric, block, parent_distances=parents, **columns)
    return node


def _decode_node_v1(payload: Dict[str, Any], decode: Decoder) -> Node:
    """A version-1 node: one JSON object per entry (read, never written)."""
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
                _decode_node_v1(entry["child"], decode),
                entry["dp"],
            )
            for entry in payload["entries"]
        ])
    return node


def mtree_to_dict(
    tree: MTree, encode: Encoder = _default_encode
) -> Dict[str, Any]:
    """JSON-ready, columnar representation of an M-tree (structure +
    objects; see the module docstring for the layout)."""
    payload: Dict[str, Any] = {
        "version": MTREE_FORMAT_VERSION,
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
        payload["root"] = _encode_node(tree.root, tree.metric, encode)
    return payload


def mtree_from_dict(
    payload: Dict[str, Any],
    metric: Metric,
    decode: Decoder = _default_decode,
) -> MTree:
    """Inverse of :func:`mtree_to_dict` (the metric is not serialised);
    also reads version-1 documents.

    Objects stored as a block come back as rows of one read-only float64
    matrix.  A version-2 node whose columns do not match its size raises
    :class:`CorruptedDataError`.
    """
    if payload.get("kind") != "mtree":
        raise InvalidParameterError(
            f"not an M-tree payload: kind={payload.get('kind')!r}"
        )
    version = _require_version(payload, "mtree", 1, MTREE_FORMAT_VERSION)
    layout = NodeLayout(
        node_size_bytes=payload["layout"]["node_size_bytes"],
        object_bytes=payload["layout"]["object_bytes"],
        min_utilization=payload["layout"]["min_utilization"],
    )
    tree = MTree(metric, layout, split_policy=payload["split_policy"])
    if "root" in payload:
        if version == 1:
            root = _decode_node_v1(payload["root"], decode)
        else:
            try:
                root = _decode_node(payload["root"], metric, decode)
            except (KeyError, TypeError) as exc:
                raise CorruptedDataError(
                    f"malformed M-tree node: {exc!r}"
                ) from exc
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
