"""Tests for the M-tree bulk-loading algorithm."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets import clustered_dataset, keyword_dataset
from repro.exceptions import EmptyDatasetError, InvalidParameterError
from repro.metrics import L2, EditDistance, LInf
from repro.mtree import NodeLayout, bulk_load, string_layout, vector_layout
from repro.workloads import LinearScanBaseline


class TestBulkLoadStructure:
    @pytest.mark.parametrize("n", [1, 5, 60, 500, 2000])
    def test_invariants(self, n, rng):
        points = rng.random((n, 3))
        layout = NodeLayout(node_size_bytes=256, object_bytes=12)
        tree = bulk_load(points, L2(), layout, seed=1)
        tree.validate()
        assert len(tree) == n
        assert {oid for oid, _ in tree.iter_objects()} == set(range(n))

    def test_balanced_by_construction(self, rng):
        points = rng.random((1000, 2))
        layout = NodeLayout(node_size_bytes=256, object_bytes=8)
        tree = bulk_load(points, L2(), layout, seed=2)
        # validate() already asserts equal leaf depth; check height sane:
        assert 2 <= tree.height <= 6

    def test_custom_oids(self, rng):
        points = rng.random((20, 2))
        oids = list(range(100, 120))
        layout = NodeLayout(node_size_bytes=256, object_bytes=8)
        tree = bulk_load(points, L2(), layout, oids=oids)
        assert {oid for oid, _ in tree.iter_objects()} == set(oids)

    def test_oid_length_mismatch(self, rng):
        layout = NodeLayout(node_size_bytes=256, object_bytes=8)
        with pytest.raises(InvalidParameterError):
            bulk_load(rng.random((5, 2)), L2(), layout, oids=[1, 2])

    def test_empty_rejected(self):
        layout = NodeLayout(node_size_bytes=256, object_bytes=8)
        with pytest.raises(EmptyDatasetError):
            bulk_load(np.zeros((0, 2)), L2(), layout)

    def test_determinism(self, rng):
        points = rng.random((200, 3))
        layout = NodeLayout(node_size_bytes=512, object_bytes=12)
        first = bulk_load(points, L2(), layout, seed=7)
        second = bulk_load(points, L2(), layout, seed=7)
        assert first.n_nodes() == second.n_nodes()
        assert first.height == second.height

    def test_min_utilization_mostly_respected(self, rng):
        """Leaves should mostly meet the 30% fill factor (the merge pass);
        occasional stragglers are tolerated."""
        points = rng.random((2000, 3))
        layout = NodeLayout(
            node_size_bytes=512, object_bytes=12, min_utilization=0.3
        )
        tree = bulk_load(points, L2(), layout, seed=3)
        leaf_sizes = []
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaf_sizes.append(len(node.entries))
            else:
                stack.extend(e.child for e in node.entries)
        underfull = sum(
            1 for s in leaf_sizes if s < layout.leaf_min_entries
        )
        assert underfull <= max(1, len(leaf_sizes) // 10)

    def test_supports_dynamic_inserts_afterwards(self, rng):
        points = rng.random((100, 2))
        layout = NodeLayout(node_size_bytes=256, object_bytes=8)
        tree = bulk_load(points, L2(), layout, seed=4)
        new_oid = tree.insert(rng.random(2))
        assert new_oid == 100
        assert len(tree) == 101
        tree.validate()


class TestBulkLoadSearchCorrectness:
    def test_range_matches_scan(self, rng):
        points = rng.random((800, 4))
        layout = NodeLayout(node_size_bytes=512, object_bytes=16)
        tree = bulk_load(points, LInf(), layout, seed=5)
        baseline = LinearScanBaseline(list(points), LInf(), 16, 4096)
        for radius in (0.05, 0.2, 0.5):
            query = rng.random(4)
            assert sorted(tree.range_query(query, radius).oids()) == sorted(
                i for i, _o, _d in baseline.range_query(query, radius)[0]
            )

    def test_knn_matches_brute_force(self, rng):
        points = rng.random((600, 3))
        layout = NodeLayout(node_size_bytes=512, object_bytes=12)
        tree = bulk_load(points, L2(), layout, seed=6)
        baseline = LinearScanBaseline(list(points), L2(), 12, 4096)
        for k in (1, 7, 25):
            query = rng.random(3)
            np.testing.assert_allclose(
                tree.knn_query(query, k).distances(),
                [d for _i, _o, d in baseline.knn_query(query, k)[0]],
                atol=1e-12,
            )

    def test_string_bulk_load(self, words):
        layout = string_layout(10, node_size_bytes=128)
        tree = bulk_load(words, EditDistance(), layout, seed=7)
        tree.validate()
        result = tree.range_query("vaso", 1.0)
        found = {obj for _oid, obj, _d in result.items}
        assert "vaso" in found
        assert "viso" in found

    def test_duplicate_heavy_input(self):
        """Degenerate data (all identical) must terminate and stay valid."""
        points = np.zeros((300, 2))
        layout = NodeLayout(node_size_bytes=256, object_bytes=8)
        tree = bulk_load(points, L2(), layout, seed=8)
        tree.validate()
        assert len(tree.range_query(np.zeros(2), 0.0)) == 300


class TestBulkLoadVsDynamic:
    def test_bulk_load_produces_tighter_or_similar_radii(self, rng):
        """Bulk loading clusters before placing, so covering radii should
        on average be no worse than dynamic inserts."""
        from repro.mtree import MTree, collect_node_stats

        points = rng.random((500, 3))
        layout = NodeLayout(node_size_bytes=512, object_bytes=12)
        bulk = bulk_load(points, L2(), layout, seed=9)
        dynamic = MTree(L2(), layout, seed=9)
        dynamic.insert_many(points)
        bulk_stats = collect_node_stats(bulk, d_plus=np.sqrt(3))
        dyn_stats = collect_node_stats(dynamic, d_plus=np.sqrt(3))
        bulk_mean = np.mean([s.radius for s in bulk_stats if s.level > 1])
        dyn_mean = np.mean([s.radius for s in dyn_stats if s.level > 1])
        assert bulk_mean <= dyn_mean * 1.25


def _fingerprint(tree):
    """SHA-256 over the tree depth first in entry order: each node's kind
    and size, and per entry the oid (leaf) or covering radius (internal),
    the parent distance and the object, every number by its bits."""
    digest = hashlib.sha256()

    def bits(value):
        if isinstance(value, str):
            return value.encode("utf-8")
        return np.asarray(value, dtype=np.float64).tobytes()

    def walk(node):
        digest.update(b"L" if node.is_leaf else b"I")
        digest.update(len(node.entries).to_bytes(4, "little"))
        for entry in node.entries:
            if node.is_leaf:
                digest.update(int(entry.oid).to_bytes(8, "little", signed=True))
            else:
                digest.update(bits(entry.radius))
            digest.update(bits(entry.dist_to_parent))
            digest.update(bits(entry.obj))
            if not node.is_leaf:
                walk(entry.child)

    walk(tree.root)
    return digest.hexdigest()


#: (height, node count, fingerprint) of the trees below.
PINNED = {
    "linf": (
        3, 206,
        "dc7550b2db23fd240d36976dc3790c2a6ee114a35b2a540c7b26648c8d27d16f",
    ),
    "words": (
        5, 409,
        "a2ca1c9829acb62683e66d8128424057c7e5f26719ebf119743d5426399d5579",
    ),
}


class TestBuildIsPinned:
    """The tree a fixed seed builds, pinned node for node: a change to
    how bulk loading computes or groups distances shows up here even if
    the tree stays valid."""

    def test_linf_vectors(self):
        data = clustered_dataset(3000, 8, metric=LInf(), seed=11)
        layout = vector_layout(8, node_size_bytes=1024)
        tree = bulk_load(data.points, LInf(), layout, seed=5)
        assert (tree.height, tree.n_nodes()) == PINNED["linf"][:2]
        assert _fingerprint(tree) == PINNED["linf"][2]

    def test_words(self):
        words = keyword_dataset(1500, seed=3).words
        layout = string_layout(20, node_size_bytes=256)
        tree = bulk_load(words, EditDistance(), layout, seed=5)
        assert (tree.height, tree.n_nodes()) == PINNED["words"][:2]
        assert _fingerprint(tree) == PINNED["words"][2]
