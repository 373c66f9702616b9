"""Tests for M-tree deletion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics import L2
from repro.mtree import MTree, NodeLayout, bulk_load
from repro.workloads import LinearScanBaseline


def build(points, node_size=256, seed=0):
    layout = NodeLayout(
        node_size_bytes=node_size, object_bytes=4 * points.shape[1]
    )
    return bulk_load(points, L2(), layout, seed=seed)


class TestDelete:
    def test_delete_existing(self, rng):
        points = rng.random((100, 3))
        tree = build(points)
        assert tree.delete(points[7])
        assert len(tree) == 99
        tree.validate()
        assert 7 not in {oid for oid, _obj in tree.iter_objects()}

    def test_delete_missing_returns_false(self, rng):
        points = rng.random((50, 3))
        tree = build(points)
        assert not tree.delete(np.full(3, 2.0))
        assert len(tree) == 50

    def test_delete_by_oid_disambiguates_duplicates(self):
        points = np.zeros((30, 2))
        tree = build(points)
        assert tree.delete(np.zeros(2), oid=13)
        remaining = {oid for oid, _obj in tree.iter_objects()}
        assert 13 not in remaining
        assert len(remaining) == 29

    def test_delete_wrong_oid_object_pair(self, rng):
        points = rng.random((20, 2))
        tree = build(points)
        # oid 3 exists but not at this location.
        assert not tree.delete(np.full(2, 0.999), oid=3)

    def test_queries_correct_after_deletes(self, rng):
        points = rng.random((300, 3))
        tree = build(points)
        removed = set()
        for i in range(0, 150, 3):
            assert tree.delete(points[i], oid=i)
            removed.add(i)
        tree.validate()
        survivors = [
            (i, p) for i, p in enumerate(points) if i not in removed
        ]
        baseline = LinearScanBaseline(
            [p for _i, p in survivors], L2(), 12, 4096
        )
        for _ in range(5):
            query = rng.random(3)
            tree_oids = sorted(tree.range_query(query, 0.3).oids())
            scan_positions = {
                pos for pos, _o, _d in baseline.range_query(query, 0.3)[0]
            }
            expected = sorted(survivors[pos][0] for pos in scan_positions)
            assert tree_oids == expected

    def test_knn_correct_after_deletes(self, rng):
        points = rng.random((200, 3))
        tree = build(points)
        for i in range(50):
            tree.delete(points[i], oid=i)
        query = rng.random(3)
        result = tree.knn_query(query, 5)
        survivors = points[50:]
        brute = sorted(L2().distance(query, p) for p in survivors)[:5]
        np.testing.assert_allclose(result.distances(), brute, atol=1e-12)

    def test_delete_everything(self, rng):
        points = rng.random((60, 2))
        tree = build(points)
        order = rng.permutation(60)
        for i in order:
            assert tree.delete(points[i], oid=int(i)), f"failed at oid {i}"
        assert len(tree) == 0
        assert tree.root is None
        # And the tree is usable again.
        tree.insert(np.array([0.5, 0.5]))
        assert len(tree) == 1

    def test_interleaved_insert_delete(self, rng):
        points = rng.random((150, 2))
        tree = build(points[:100])
        for i in range(50):
            tree.delete(points[i], oid=i)
            tree.insert(points[100 + i])
        tree.validate()
        assert len(tree) == 100

    def test_reattach_split_propagates_up(self):
        """A subtree re-attached after an underflow can overflow its new
        parent, and the split that fixes it can overflow the grandparent;
        every overflow is split.  With this seed the re-attach split once
        left a 5-entry internal node in a layout of capacity 4."""
        rng = np.random.default_rng(29)
        points = rng.random((300, 2))
        layout = NodeLayout(
            node_size_bytes=96, object_bytes=8, min_utilization=0.3
        )
        tree = MTree(L2(), layout, seed=0)
        tree.insert_many(points)
        for i in rng.permutation(len(points))[:60].tolist():
            assert tree.delete(points[i], oid=i)
            tree.validate()

    @pytest.mark.parametrize("seed", [1, 56])
    def test_underflow_repair_survives_a_split_on_its_path(self, seed):
        """Re-inserting a dissolved node's entries can split a node on
        the delete's path.  With these seeds, repairing each level right
        after the one below once went on from a split node no longer in
        the tree: it dissolved a live child (a subtree with two parents)
        or lost objects."""
        rng = np.random.default_rng(seed)
        points = rng.random((200, 2))
        layout = NodeLayout(
            node_size_bytes=96, object_bytes=8, min_utilization=0.45
        )
        tree = MTree(L2(), layout, seed=0)
        tree.insert_many(points)
        gone = rng.permutation(len(points))[:40].tolist()
        for i in gone:
            assert tree.delete(points[i], oid=i)
            tree.validate()
        assert sorted(oid for oid, _obj in tree.iter_objects()) == sorted(
            set(range(len(points))) - set(gone)
        )

    def test_delete_from_empty_tree(self):
        from repro.mtree import vector_layout

        tree = MTree(L2(), vector_layout(2))
        assert not tree.delete(np.zeros(2))

    def test_underflow_triggers_reinsertion(self, rng):
        """Deleting most of one cluster must dissolve its leaves without
        losing the remaining objects."""
        cluster_a = rng.random((60, 2)) * 0.1
        cluster_b = rng.random((60, 2)) * 0.1 + 0.9
        points = np.vstack([cluster_a, cluster_b])
        tree = build(points)
        for i in range(55):  # nearly all of cluster A
            assert tree.delete(points[i], oid=i)
        tree.validate()
        remaining = {oid for oid, _obj in tree.iter_objects()}
        assert remaining == set(range(55, 120))
