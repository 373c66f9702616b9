"""Round-trip tests for serialisation of histograms, stats and trees."""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    DistanceHistogram,
    LevelStat,
    NodeStat,
    estimate_distance_histogram,
)
from repro.datasets import uniform_dataset
from repro.exceptions import InvalidParameterError
from repro.metrics import L2, EditDistance
from repro.mtree import NodeLayout, bulk_load
from repro.persistence import (
    histogram_from_dict,
    histogram_to_dict,
    load_histogram,
    load_mtree,
    load_vptree,
    mtree_from_dict,
    mtree_to_dict,
    save_histogram,
    save_mtree,
    save_vptree,
    stats_from_dict,
    stats_to_dict,
    vptree_from_dict,
    vptree_to_dict,
)
from repro.vptree import VPTree


class TestHistogramRoundTrip:
    def test_dict_roundtrip(self):
        hist = DistanceHistogram([1, 3, 2, 4], 2.5)
        clone = histogram_from_dict(histogram_to_dict(hist))
        np.testing.assert_allclose(clone.bin_probs, hist.bin_probs)
        assert clone.d_plus == hist.d_plus

    def test_file_roundtrip(self, tmp_path):
        hist = DistanceHistogram.uniform(50, 1.0)
        path = tmp_path / "hist.json"
        save_histogram(hist, path)
        clone = load_histogram(path)
        xs = np.linspace(0, 1, 11)
        np.testing.assert_allclose(clone.cdf(xs), hist.cdf(xs))

    def test_json_serialisable(self):
        hist = DistanceHistogram([1, 2], 1.0)
        json.dumps(histogram_to_dict(hist))  # must not raise

    def test_wrong_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            histogram_from_dict({"kind": "something-else"})


class TestStatsRoundTrip:
    def test_node_stats(self):
        stats = [
            NodeStat(radius=1.0, n_entries=3, level=1),
            NodeStat(radius=0.4, n_entries=7, level=2),
        ]
        payload = stats_to_dict(node_stats=stats, n_objects=10)
        node_stats, level_stats, n = stats_from_dict(payload)
        assert node_stats == stats
        assert level_stats is None
        assert n == 10

    def test_level_stats(self):
        stats = [LevelStat(level=1, n_nodes=1, avg_radius=1.0)]
        payload = stats_to_dict(level_stats=stats)
        node_stats, level_stats, n = stats_from_dict(payload)
        assert node_stats is None
        assert level_stats == stats
        assert n is None

    def test_json_serialisable(self):
        payload = stats_to_dict(
            node_stats=[NodeStat(radius=0.5, n_entries=2, level=1)]
        )
        json.dumps(payload)

    def test_wrong_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            stats_from_dict({"kind": "mtree"})


class TestMTreeRoundTrip:
    @pytest.fixture(scope="class")
    def tree(self):
        data = uniform_dataset(300, 3, metric=L2(), seed=1)
        layout = NodeLayout(node_size_bytes=256, object_bytes=12)
        return bulk_load(data.points, L2(), layout, seed=2), data

    def test_structure_preserved(self, tree):
        built, _data = tree
        clone = mtree_from_dict(mtree_to_dict(built), L2())
        clone.validate()
        assert len(clone) == len(built)
        assert clone.n_nodes() == built.n_nodes()
        assert clone.height == built.height

    def test_queries_identical(self, tree):
        built, data = tree
        clone = mtree_from_dict(mtree_to_dict(built), L2())
        rng = np.random.default_rng(3)
        for _ in range(5):
            query = rng.random(3)
            assert sorted(clone.range_query(query, 0.4).oids()) == sorted(
                built.range_query(query, 0.4).oids()
            )
            np.testing.assert_allclose(
                clone.knn_query(query, 5).distances(),
                built.knn_query(query, 5).distances(),
            )

    def test_file_roundtrip(self, tree, tmp_path):
        built, _data = tree
        path = tmp_path / "tree.json"
        save_mtree(built, path)
        clone = load_mtree(path, L2())
        clone.validate()
        assert len(clone) == len(built)

    def test_inserts_continue_after_load(self, tree):
        built, _data = tree
        clone = mtree_from_dict(mtree_to_dict(built), L2())
        new_oid = clone.insert(np.array([0.5, 0.5, 0.5]))
        assert new_oid == len(built)
        clone.validate()

    def test_string_tree_roundtrip(self, words, tmp_path):
        layout = NodeLayout(node_size_bytes=128, object_bytes=10)
        tree = bulk_load(words, EditDistance(), layout, seed=4)
        path = tmp_path / "words.json"
        save_mtree(tree, path)
        clone = load_mtree(path, EditDistance())
        clone.validate()
        assert sorted(clone.range_query("casa", 1).oids()) == sorted(
            tree.range_query("casa", 1).oids()
        )

    def test_empty_tree_roundtrip(self):
        from repro.mtree import MTree, vector_layout

        tree = MTree(L2(), vector_layout(2))
        clone = mtree_from_dict(mtree_to_dict(tree), L2())
        assert len(clone) == 0

    def test_wrong_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            mtree_from_dict({"kind": "vptree"}, L2())

    def test_vector_nodes_are_written_as_blocks(self, tree):
        built, _data = tree
        doc = mtree_to_dict(built)
        assert doc["version"] == 2
        stack = [doc["root"]]
        while stack:
            node = stack.pop()
            assert "objs" not in node
            assert node["d"] == 3
            assert len(base64.b64decode(node["block"])) == node["n"] * 3 * 8
            stack.extend(node.get("children", ()))

    def test_cached_and_stacked_blocks_write_the_same_document(self, tree):
        built, data = tree
        for node in built.iter_nodes():
            node.block(built.metric)
        cold = bulk_load(data.points, L2(), built.layout, seed=2)
        assert all(
            node.cached_block(cold.metric) is None
            for node in cold.iter_nodes()
        )
        assert mtree_to_dict(cold) == mtree_to_dict(built)

    def test_reloaded_objects_are_rows_of_the_read_only_block(self, tree):
        built, _data = tree
        clone = mtree_from_dict(mtree_to_dict(built), L2())
        for node in clone.iter_nodes():
            block = node.cached_block(clone.metric)
            assert not block.flags.writeable
            for row, entry in enumerate(node.entries):
                assert np.shares_memory(entry.obj, block)
                assert not entry.obj.flags.writeable
                assert entry.obj.tobytes() == block[row].tobytes()

    def test_first_query_after_a_reload_builds_nothing(self, tree, monkeypatch):
        """Blocks and columns arrive with the nodes: a query after the
        load neither encodes objects nor builds a numeric column."""
        import repro.mtree.node as node_module

        built, data = tree
        metric = L2()
        clone = mtree_from_dict(mtree_to_dict(built), metric)

        def refuse(*_args):
            raise AssertionError("built a cache after the load")

        monkeypatch.setattr(metric, "encode", refuse)
        monkeypatch.setattr(node_module, "_column", refuse)
        query = data.points[7]
        assert 7 in clone.range_query(query, 0.2).oids()
        assert clone.knn_query(query, 3).neighbors[0].oid == 7

    @pytest.mark.parametrize("store", ["vectors", "words"])
    def test_version_1_documents_still_load(self, store):
        """The snapshot of a store written by the version-1 writer."""
        snapshot = (
            Path(__file__).parent / "ingest" / "fixtures" / "v1-store"
            / store / "snapshots" / "tree.g1.json"
        )
        doc = json.loads(snapshot.read_text())["tree"]
        assert doc["version"] == 1
        metric = L2() if store == "vectors" else EditDistance()
        tree = mtree_from_dict(doc, metric)
        tree.validate()
        assert sorted(oid for oid, _obj in tree.iter_objects()) == list(
            range(40)
        )
        again = mtree_from_dict(mtree_to_dict(tree), metric)
        assert mtree_to_dict(again) == mtree_to_dict(tree)

    def test_non_vector_objects_go_through_the_codec(self, words):
        layout = NodeLayout(node_size_bytes=128, object_bytes=10)
        tree = bulk_load(words, EditDistance(), layout, seed=4)
        doc = mtree_to_dict(tree)
        assert "block" not in doc["root"]
        assert len(doc["root"]["objs"]) == doc["root"]["n"]
        clone = mtree_from_dict(doc, EditDistance())
        assert sorted(clone.iter_objects()) == sorted(tree.iter_objects())


class TestVPTreeRoundTrip:
    def test_structure_and_queries(self, tmp_path):
        rng = np.random.default_rng(5)
        points = rng.random((200, 3))
        tree = VPTree.build(list(points), L2(), arity=3, seed=6)
        path = tmp_path / "vptree.json"
        save_vptree(tree, path)
        clone = load_vptree(path, L2())
        clone.validate()
        assert clone.n_nodes() == tree.n_nodes()
        query = rng.random(3)
        assert sorted(clone.range_query(query, 0.3).oids()) == sorted(
            tree.range_query(query, 0.3).oids()
        )

    def test_empty_roundtrip(self):
        tree = VPTree.build([], L2())
        clone = vptree_from_dict(vptree_to_dict(tree), L2())
        assert len(clone) == 0

    def test_wrong_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            vptree_from_dict({"kind": "mtree"}, L2())


class TestCustomCodec:
    def test_custom_encoder_decoder(self, tmp_path):
        """Tuple-typed objects round-trip through a user codec."""
        from repro.metrics import FunctionMetric
        from repro.mtree import MTree, NodeLayout

        metric = FunctionMetric(
            lambda a, b: abs(a[0] - b[0]) + abs(a[1] - b[1]), name="pair-L1"
        )
        layout = NodeLayout(node_size_bytes=128, object_bytes=8)
        tree = MTree(metric, layout)
        for i in range(20):
            tree.insert((float(i), float(i % 3)))
        payload = mtree_to_dict(
            tree, encode=lambda obj: {"t": "pair", "v": list(obj)}
        )
        clone = mtree_from_dict(
            payload, metric, decode=lambda p: tuple(p["v"])
        )
        clone.validate()
        assert sorted(clone.range_query((3.0, 0.0), 1.0).oids()) == sorted(
            tree.range_query((3.0, 0.0), 1.0).oids()
        )

    def test_default_encoder_rejects_unknown(self):
        from repro.persistence import _default_encode

        with pytest.raises(InvalidParameterError):
            _default_encode(object())
