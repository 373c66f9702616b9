"""Hostile-artifact tests: every loader must fail loudly, not weirdly.

For each persisted artifact kind (histogram, N-MCM/L-MCM stats, M-tree,
vp-tree) the loaders face: an empty file, truncated JSON, a wrong format
version, and a flipped bit — and must raise the matching
:class:`MetricostError` subclass every time.

The columnar M-tree document faces damage that a valid checksummed
envelope carries through: a truncated or mis-sized object block and
columns whose lengths disagree raise :class:`CorruptedDataError`; an
unknown document version, or an ingest snapshot with an unknown tree
format or document version, raises :class:`FormatVersionError`.
"""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest

from repro.core import DistanceHistogram, NodeStat
from repro.exceptions import (
    CorruptedDataError,
    FormatVersionError,
    MetricostError,
)
from repro.ingest import IngestService
from repro.ingest.service import CHECKPOINT_FORMAT, TREE_FORMAT
from repro.metrics import L2, EditDistance
from repro.mtree import NodeLayout, bulk_load, vector_layout
from repro.persistence import (
    _save_artifact,
    histogram_to_dict,
    load_histogram,
    load_mtree,
    load_stats,
    load_vptree,
    mtree_to_dict,
    save_histogram,
    save_mtree,
    save_stats,
    save_vptree,
    stats_to_dict,
    vptree_to_dict,
)
from repro.reliability.doctor import flip_body_bit
from repro.vptree import VPTree


def _sample_tree():
    rng = np.random.default_rng(0)
    points = rng.random((60, 3))
    layout = NodeLayout(node_size_bytes=256, object_bytes=12)
    return bulk_load(points, L2(), layout, seed=1)


def _sample_vptree():
    rng = np.random.default_rng(2)
    return VPTree.build(list(rng.random((60, 3))), L2(), arity=2, seed=3)


# (name, save(path), load(path), payload_dict()) per artifact kind.
ARTIFACTS = [
    (
        "histogram",
        lambda path: save_histogram(DistanceHistogram.uniform(32, 1.0), path),
        load_histogram,
        lambda: histogram_to_dict(DistanceHistogram.uniform(32, 1.0)),
    ),
    (
        "stats",
        lambda path: save_stats(
            path,
            node_stats=[NodeStat(radius=0.5, n_entries=3, level=1)],
            n_objects=10,
        ),
        load_stats,
        lambda: stats_to_dict(
            node_stats=[NodeStat(radius=0.5, n_entries=3, level=1)]
        ),
    ),
    (
        "mtree",
        lambda path: save_mtree(_sample_tree(), path),
        lambda path: load_mtree(path, L2()),
        lambda: mtree_to_dict(_sample_tree()),
    ),
    (
        "vptree",
        lambda path: save_vptree(_sample_vptree(), path),
        lambda path: load_vptree(path, L2()),
        lambda: vptree_to_dict(_sample_vptree()),
    ),
]

IDS = [name for name, _s, _l, _p in ARTIFACTS]


@pytest.mark.parametrize("name,save,load,payload", ARTIFACTS, ids=IDS)
class TestHostileArtifacts:
    def test_empty_file(self, tmp_path, name, save, load, payload):
        path = tmp_path / f"{name}.json"
        path.write_text("")
        with pytest.raises(CorruptedDataError):
            load(path)

    def test_truncated_json(self, tmp_path, name, save, load, payload):
        path = tmp_path / f"{name}.json"
        save(path)
        text = path.read_text()
        path.write_text(text[: len(text) // 3])
        with pytest.raises(CorruptedDataError):
            load(path)

    def test_flipped_bit(self, tmp_path, name, save, load, payload):
        path = tmp_path / f"{name}.json"
        save(path)
        flip_body_bit(path)
        with pytest.raises(CorruptedDataError) as excinfo:
            load(path)
        assert "checksum" in str(excinfo.value) or "crc32" in str(
            excinfo.value
        )

    def test_wrong_version(self, tmp_path, name, save, load, payload):
        doc = payload()
        doc["version"] = 999
        path = tmp_path / f"{name}.json"
        _save_artifact(doc, path)
        with pytest.raises(FormatVersionError) as excinfo:
            load(path)
        assert "expected version 1" in str(excinfo.value)
        assert "999" in str(excinfo.value)

    def test_missing_version_rejected(self, tmp_path, name, save, load, payload):
        doc = payload()
        del doc["version"]
        path = tmp_path / f"{name}.json"
        _save_artifact(doc, path)
        with pytest.raises(FormatVersionError):
            load(path)

    def test_all_failures_are_metricost_errors(
        self, tmp_path, name, save, load, payload
    ):
        """Callers can catch the whole hostile zoo with one except clause."""
        path = tmp_path / f"{name}.json"
        path.write_text("{\"kind\": 42}")
        with pytest.raises(MetricostError):
            load(path)


class TestAtomicSaves:
    def test_no_temp_residue(self, tmp_path):
        save_histogram(DistanceHistogram.uniform(16, 1.0), tmp_path / "h.json")
        assert [p.name for p in tmp_path.iterdir()] == ["h.json"]

    def test_failed_save_preserves_old_artifact(self, tmp_path):
        """A save that dies mid-serialisation must leave the previous
        artifact intact (write-to-temp + rename, never in-place)."""
        path = tmp_path / "h.json"
        original = DistanceHistogram.uniform(16, 1.0)
        save_histogram(original, path)
        before = path.read_text()

        class Explosive:
            """Payload whose encoding raises partway through a save."""

        with pytest.raises(Exception):
            save_mtree(_sample_tree(), path, encode=lambda obj: Explosive())
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["h.json"]

    def test_legacy_unchecksummed_artifact_still_loads(self, tmp_path):
        """Pre-reliability files (raw payload JSON) remain readable."""
        hist = DistanceHistogram.uniform(16, 1.0)
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(histogram_to_dict(hist)))
        clone = load_histogram(path)
        np.testing.assert_allclose(clone.bin_probs, hist.bin_probs)


def _first_leaf(doc):
    node = doc["root"]
    while not node["leaf"]:
        node = node["children"][0]
    return node


def _b64_bytes(raw):
    return base64.b64encode(raw).decode("ascii")


def _block_bytes(node):
    return base64.b64decode(node["block"])


# Damage to one node of a version-2 tree document, each inside a valid
# checksummed envelope, so only the tree decoder can catch it.
V2_DAMAGE = {
    "truncated block": lambda node: node.update(
        block=_b64_bytes(_block_bytes(node)[:-8])
    ),
    "block not n*d*8 bytes": lambda node: node.update(
        block=_b64_bytes(_block_bytes(node) + b"\0\0\0")
    ),
    "block cut mid-base64": lambda node: node.update(
        block=node["block"][:-3]
    ),
    "width disagrees with block": lambda node: node.update(d=node["d"] + 1),
    "one oid short": lambda node: node.update(
        oids=_b64_bytes(base64.b64decode(node["oids"])[:-8])
    ),
    "one parent distance extra": lambda node: node.update(
        dp=_b64_bytes(base64.b64decode(node["dp"]) + bytes(8))
    ),
    "size disagrees with columns": lambda node: node.update(n=node["n"] + 1),
    "size not a count": lambda node: node.update(n="3"),
    "column missing": lambda node: node.pop("oids"),
}


class TestHostileTreeV2:
    @pytest.mark.parametrize("damage", sorted(V2_DAMAGE))
    def test_damaged_leaf_is_corrupted_data(self, tmp_path, damage):
        doc = mtree_to_dict(_sample_tree())
        V2_DAMAGE[damage](_first_leaf(doc))
        path = tmp_path / "tree.json"
        _save_artifact(doc, path)
        with pytest.raises(CorruptedDataError):
            load_mtree(path, L2())

    def test_internal_node_with_a_child_missing(self, tmp_path):
        doc = mtree_to_dict(_sample_tree())
        doc["root"]["children"].pop()
        path = tmp_path / "tree.json"
        _save_artifact(doc, path)
        with pytest.raises(CorruptedDataError):
            load_mtree(path, L2())

    def test_object_list_shorter_than_the_node(self, tmp_path):
        words = ["casa", "cosa", "caso", "masa", "mesa", "musa", "rosa"] * 4
        layout = NodeLayout(node_size_bytes=80, object_bytes=8)
        doc = mtree_to_dict(bulk_load(words, EditDistance(), layout, seed=1))
        _first_leaf(doc)["objs"].pop()
        path = tmp_path / "words.json"
        _save_artifact(doc, path)
        with pytest.raises(CorruptedDataError):
            load_mtree(path, EditDistance())

    @pytest.mark.parametrize("version", [0, 3, True, "2"])
    def test_unknown_version(self, tmp_path, version):
        doc = mtree_to_dict(_sample_tree())
        doc["version"] = version
        path = tmp_path / "tree.json"
        _save_artifact(doc, path)
        with pytest.raises(FormatVersionError):
            load_mtree(path, L2())


class TestHostileIngestSnapshot:
    """An ingest store whose committed snapshot (manifest digests intact)
    carries an unknown tree format or tree document version."""

    def _store(self, tmp_path, tree_format, version):
        service = IngestService(
            tmp_path, L2(), vector_layout(3, node_size_bytes=256),
            fsync="never",
        )
        service.recover()
        service.append(np.random.default_rng(4).random((40, 3)))
        service.apply()
        view = service.view()
        tree_doc = mtree_to_dict(view.tree)
        tree_doc["version"] = version
        service.store.save({
            "tree": json.dumps({"format": tree_format, "tree": tree_doc}),
            "checkpoint": json.dumps({
                "format": CHECKPOINT_FORMAT, "seq": view.seq,
                "epoch": view.epoch, "n_objects": len(view.tree),
            }),
        })
        service.close()
        return IngestService(
            tmp_path, L2(), vector_layout(3, node_size_bytes=256),
            fsync="never",
        )

    def test_current_format_recovers(self, tmp_path):
        service = self._store(tmp_path, TREE_FORMAT, 2)
        assert service.recover().checkpoint_seq == 40
        assert len(service.view()) == 40
        service.close()

    def test_unknown_tree_format(self, tmp_path):
        service = self._store(tmp_path, "metricost-ingest-tree-v3", 2)
        with pytest.raises(FormatVersionError):
            service.recover()

    def test_unknown_tree_document_version(self, tmp_path):
        service = self._store(tmp_path, TREE_FORMAT, 3)
        with pytest.raises(FormatVersionError):
            service.recover()
