"""Tests for dynamic M-tree construction and search correctness."""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import EmptyTreeError, InvalidParameterError
from repro.metrics import L2, EditDistance, LInf
from repro.metrics.kernels.encode import StringBlock
from repro.mtree import MTree, NodeLayout, bulk_load, vector_layout
from repro.reliability import StructuralFaultInjector
from repro.workloads import LinearScanBaseline


def build_tree(points, metric=None, node_size=256, seed=0):
    metric = metric if metric is not None else L2()
    layout = NodeLayout(
        node_size_bytes=node_size,
        object_bytes=4 * points.shape[1],
        min_utilization=0.3,
    )
    tree = MTree(metric, layout, seed=seed)
    tree.insert_many(points)
    return tree


class TestInsert:
    def test_empty_tree(self):
        tree = MTree(L2(), vector_layout(2))
        assert len(tree) == 0
        assert tree.height == 0
        assert tree.n_nodes() == 0

    def test_single_insert(self):
        tree = MTree(L2(), vector_layout(2))
        oid = tree.insert(np.array([0.1, 0.2]))
        assert oid == 0
        assert len(tree) == 1
        assert tree.height == 1

    def test_oids_sequential(self, rng):
        tree = MTree(L2(), vector_layout(2))
        oids = tree.insert_many(rng.random((10, 2)))
        assert oids == list(range(10))

    def test_explicit_oid(self):
        tree = MTree(L2(), vector_layout(2))
        assert tree.insert(np.array([0.0, 0.0]), oid=42) == 42

    @pytest.mark.parametrize("n", [5, 30, 120, 400])
    def test_invariants_after_inserts(self, n, rng):
        points = rng.random((n, 3))
        tree = build_tree(points)
        tree.validate()
        assert len(tree) == n
        stored = {oid for oid, _obj in tree.iter_objects()}
        assert stored == set(range(n))

    def test_tree_grows_in_height(self, rng):
        points = rng.random((400, 3))
        tree = build_tree(points, node_size=256)
        assert tree.height >= 3

    def test_duplicate_objects(self):
        tree = build_tree(np.zeros((50, 2)))
        tree.validate()
        result = tree.range_query(np.zeros(2), 0.0)
        assert len(result) == 50


class TestRangeQuery:
    def test_matches_linear_scan(self, rng):
        points = rng.random((300, 3))
        tree = build_tree(points)
        baseline = LinearScanBaseline(list(points), L2(), 12, 4096)
        for radius in (0.0, 0.1, 0.3, 0.8, 2.0):
            query = rng.random(3)
            tree_result = sorted(tree.range_query(query, radius).oids())
            scan_result = sorted(
                i for i, _obj, _d in baseline.range_query(query, radius)[0]
            )
            assert tree_result == scan_result

    def test_distances_reported(self, rng):
        points = rng.random((100, 2))
        tree = build_tree(points)
        query = rng.random(2)
        result = tree.range_query(query, 0.5)
        for oid, obj, dist in result.items:
            assert dist == pytest.approx(L2().distance(query, obj))
            assert dist <= 0.5

    def test_negative_radius_rejected(self, rng):
        tree = build_tree(rng.random((10, 2)))
        with pytest.raises(InvalidParameterError):
            tree.range_query(np.zeros(2), -0.1)

    @pytest.mark.parametrize("radius", [-0.1, math.nan])
    def test_invalid_radius_rejected(self, radius, rng):
        tree = build_tree(rng.random((10, 2)))
        with pytest.raises(InvalidParameterError):
            tree.range_query(np.zeros(2), radius)

    @pytest.mark.parametrize("radius", [-0.1, math.nan])
    def test_complex_query_rejects_invalid_radius(self, radius, rng):
        tree = build_tree(rng.random((10, 2)))
        with pytest.raises(InvalidParameterError):
            tree.complex_range_query([(np.zeros(2), 0.5), (np.ones(2), radius)])

    def test_empty_tree_returns_empty(self):
        tree = MTree(L2(), vector_layout(2))
        result = tree.range_query(np.zeros(2), 1.0)
        assert len(result) == 0
        assert result.stats.nodes_accessed == 0

    def test_cost_accounting_without_pruning(self, rng):
        """Every entry of every accessed node costs one distance — the
        cost-model assumption (footnote 2)."""
        points = rng.random((200, 3))
        tree = build_tree(points)
        result = tree.range_query(rng.random(3), 0.4)
        assert result.stats.nodes_accessed >= 1
        assert result.stats.dists_computed >= result.stats.nodes_accessed

    def test_pruning_preserves_results_and_saves_distances(self, rng):
        points = rng.random((400, 3))
        tree = build_tree(points)
        total_pruned = 0
        total_plain = 0
        for _ in range(10):
            query = rng.random(3)
            plain = tree.range_query(query, 0.25, use_parent_pruning=False)
            pruned = tree.range_query(query, 0.25, use_parent_pruning=True)
            assert sorted(plain.oids()) == sorted(pruned.oids())
            total_plain += plain.stats.dists_computed
            total_pruned += pruned.stats.dists_computed
        assert total_pruned < total_plain


class TestKNNQuery:
    def test_matches_brute_force(self, rng):
        points = rng.random((250, 3))
        tree = build_tree(points)
        baseline = LinearScanBaseline(list(points), L2(), 12, 4096)
        for k in (1, 3, 10, 50):
            query = rng.random(3)
            tree_dists = tree.knn_query(query, k).distances()
            scan_dists = [d for _i, _o, d in baseline.knn_query(query, k)[0]]
            np.testing.assert_allclose(tree_dists, scan_dists, atol=1e-12)

    def test_neighbors_sorted(self, rng):
        points = rng.random((100, 2))
        tree = build_tree(points)
        result = tree.knn_query(rng.random(2), 10)
        dists = result.distances()
        assert dists == sorted(dists)

    def test_k_validation(self, rng):
        tree = build_tree(rng.random((10, 2)))
        with pytest.raises(InvalidParameterError):
            tree.knn_query(np.zeros(2), 0)
        with pytest.raises(InvalidParameterError):
            tree.knn_query(np.zeros(2), 11)

    def test_empty_tree_rejected(self):
        tree = MTree(L2(), vector_layout(2))
        with pytest.raises(EmptyTreeError):
            tree.knn_query(np.zeros(2), 1)

    def test_pruning_preserves_knn(self, rng):
        points = rng.random((300, 3))
        tree = build_tree(points)
        for _ in range(5):
            query = rng.random(3)
            plain = tree.knn_query(query, 5, use_parent_pruning=False)
            pruned = tree.knn_query(query, 5, use_parent_pruning=True)
            np.testing.assert_allclose(
                plain.distances(), pruned.distances(), atol=1e-12
            )

    def test_optimality_vs_range(self, rng):
        """The optimal k-NN search should not access more nodes than the
        equivalent range query at the k-th NN distance (plus boundary
        ties)."""
        points = rng.random((300, 3))
        tree = build_tree(points)
        query = rng.random(3)
        knn = tree.knn_query(query, 5)
        radius = knn.distances()[-1]
        range_result = tree.range_query(query, radius)
        assert knn.stats.nodes_accessed <= range_result.stats.nodes_accessed


class TestStringTree:
    def test_insert_and_query_strings(self, words):
        layout = NodeLayout(node_size_bytes=128, object_bytes=10)
        tree = MTree(EditDistance(), layout, seed=1)
        for word in words:
            tree.insert(word)
        tree.validate()
        result = tree.range_query("casa", 1.0)
        found = {obj for _oid, obj, _d in result.items}
        assert "casa" in found
        assert "cassa" in found
        assert "cosa" in found
        assert "verde" not in found

    def test_knn_on_strings(self, words):
        layout = NodeLayout(node_size_bytes=128, object_bytes=10)
        tree = MTree(EditDistance(), layout, seed=1)
        for word in words:
            tree.insert(word)
        result = tree.knn_query("caso", 3)
        assert result.neighbors[0].obj == "caso"
        assert result.neighbors[0].distance == 0.0


class TestSplitPolicyVariants:
    @pytest.mark.parametrize("policy", ["mm_rad", "random"])
    def test_both_policies_build_valid_trees(self, policy, rng):
        points = rng.random((150, 3))
        layout = NodeLayout(node_size_bytes=256, object_bytes=12)
        tree = MTree(L2(), layout, split_policy=policy, seed=4)
        tree.insert_many(points)
        tree.validate()
        query = rng.random(3)
        expected = sorted(
            i
            for i, p in enumerate(points)
            if L2().distance(query, p) <= 0.3
        )
        assert sorted(tree.range_query(query, 0.3).oids()) == expected


# Coordinates on a small integer grid make exact distance ties common.
GRID_POINT = st.tuples(
    st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)
).map(lambda xy: np.array(xy, dtype=np.float64))
BLOCK_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), GRID_POINT),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(
            st.just("range"), GRID_POINT, st.sampled_from([0.0, 1.0, 2.5, 9.0])
        ),
        st.tuples(st.just("knn"), GRID_POINT, st.integers(min_value=1, max_value=8)),
    ),
    min_size=1,
    max_size=60,
)


class TestNodeBlocks:
    """Each node caches its objects in kernel input form; every change
    to its entries must drop the cache."""

    def test_entries_cannot_be_mutated_in_place(self, rng):
        tree = build_tree(rng.random((40, 2)))
        node = tree.root
        assert isinstance(node.entries, tuple)
        with pytest.raises(AttributeError):
            getattr(node.entries, "append")
        with pytest.raises(AttributeError):
            setattr(node, "entries", ())

    def test_mutators_drop_the_block(self, rng):
        tree = build_tree(rng.random((40, 2)))
        leaf = next(node for node in tree.iter_nodes() if node.is_leaf)
        block = leaf.block(tree.metric)
        assert leaf.block(tree.metric) is block
        assert len(block) == len(leaf.entries)
        leaf.remove(leaf.entries[0])
        assert leaf.cached_block(tree.metric) is None
        assert len(leaf.block(tree.metric)) == len(leaf.entries)

    def test_clone_shares_blocks(self):
        """A twin shares every node, and so every block; the copy an
        insert makes of a node on its path keeps the block unless it
        changes the node's objects, and never drops the original's.
        The data is fixed so that the insert splits no node."""
        tree = build_tree(np.random.default_rng(7).random((120, 2)))
        tree.range_query(np.zeros(2), 10.0)  # builds every block
        blocks = [node.cached_block(tree.metric) for node in tree.iter_nodes()]
        assert all(block is not None for block in blocks)
        twin = tree.clone()
        assert list(twin.iter_nodes()) == list(tree.iter_nodes())
        height = tree.height
        twin.insert(np.array([0.5, 0.5]))
        assert twin.height == height > 1
        assert twin.root is not tree.root
        assert twin.root.cached_block(twin.metric) is blocks[0]
        assert [
            node.cached_block(tree.metric) for node in tree.iter_nodes()
        ] == blocks
        twin.validate()
        tree.validate()

    def test_validate_compares_string_block_arrays(self):
        """A cached edit-distance block holding the right strings but
        wrong codepoints is stale, and validate() says so."""
        words = [a + b for a in "abcdefg" for b in "xyz€𝔸"]
        tree = bulk_load(
            words, EditDistance(), NodeLayout(80, object_bytes=8), seed=1
        )
        tree.range_query("beta", 1.0)  # builds the blocks on the path
        tree.validate()
        leaf = next(
            node
            for node in tree.iter_nodes()
            if node.is_leaf and node.cached_block(tree.metric) is not None
        )
        block = leaf.cached_block(tree.metric)
        forged = StringBlock(block)
        data = block.data.copy()
        data[0] += 1
        forged._set_csr(data, block.offsets.copy())
        leaf._cache = (tree.metric, forged)
        assert list(forged) == list(block)
        with pytest.raises(AssertionError, match="stale kernel block"):
            tree.validate()

    def test_concurrent_readers_build_blocks_safely(self, rng):
        """Worker threads racing to build the same missing blocks all get
        exact answers, and the blocks they leave behind are current."""
        points = rng.random((400, 2))
        tree = bulk_load(points, L2(), vector_layout(2), seed=1)
        queries = rng.random((30, 2))
        scan = LinearScanBaseline(list(points), L2(), 8, 4096)
        expected = [
            sorted(i for i, _o, _d in scan.range_query(q, 0.2)[0])
            for q in queries
        ]
        mismatches = []

        def reader(offset):
            for j in range(len(queries)):
                i = (j + offset) % len(queries)
                got = sorted(tree.range_query(queries[i], 0.2).oids())
                if got != expected[i]:
                    mismatches.append(i)

        threads = [
            threading.Thread(target=reader, args=(n,)) for n in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        tree.validate()

    def test_query_after_dropped_entry_sees_the_drop(self, rng):
        points = rng.random((200, 2))
        tree = build_tree(points)
        assert len(tree.range_query(np.zeros(2), 10.0)) == len(points)
        StructuralFaultInjector(seed=3).drop_entry(tree)
        assert len(tree.range_query(np.zeros(2), 10.0)) == len(points) - 1

    @given(ops=BLOCK_OPS)
    @settings(max_examples=60)
    def test_interleaved_updates_match_linear_scan(self, ops):
        metric = L2()
        layout = NodeLayout(
            node_size_bytes=96, object_bytes=8, min_utilization=0.3
        )
        tree = MTree(metric, layout, seed=0)
        live = {}  # oid -> point
        for op in ops:
            if op[0] == "insert":
                oid = tree.insert(op[1])
                live[oid] = op[1]
            elif op[0] == "delete":
                if not live:
                    continue
                oid = sorted(live)[op[1] % len(live)]
                assert tree.delete(live.pop(oid), oid=oid)
            else:
                if not live:
                    continue
                oids = sorted(live)
                scan = LinearScanBaseline(
                    [live[oid] for oid in oids], metric, 8, 96
                )
                if op[0] == "range":
                    got = sorted(tree.range_query(op[1], op[2]).oids())
                    want = sorted(
                        oids[i] for i, _o, _d in scan.range_query(op[1], op[2])[0]
                    )
                    assert got == want
                else:
                    k = min(op[2], len(live))
                    got = tree.knn_query(op[1], k).distances()
                    want = [d for _i, _o, d in scan.knn_query(op[1], k)[0]]
                    assert got == want
            tree.validate()


def built_columns(node):
    """The names of the node's columns built so far."""
    return [
        name
        for name in ("_radii", "_oids", "_objects", "_parents", "_children")
        if getattr(node, name) is not None
    ]


def build_columns(tree):
    """Build every node's columns and children."""
    for node in tree.iter_nodes():
        node.parent_distances
        if node.is_leaf:
            node.oids, node.objects
        else:
            node.radii, node.children


def assert_columns_current(tree):
    for node in tree.iter_nodes():
        assert node.columns_current()
        assert node.parent_distances.tolist() == [
            entry.dist_to_parent for entry in node.entries
        ]
        if node.is_leaf:
            assert node.oids.tolist() == [entry.oid for entry in node.entries]
            assert all(
                obj is entry.obj
                for obj, entry in zip(node.objects, node.entries)
            )
        else:
            assert node.radii.tolist() == [
                entry.radius for entry in node.entries
            ]
            assert node.children == tuple(e.child for e in node.entries)


class TestNodeColumns:
    """Radii, oids, objects, parent distances and children are cached as
    columns; every mutator drops what it may have made stale."""

    def test_columns_are_lazy_read_only_and_match_the_entries(self, rng):
        tree = bulk_load(rng.random((300, 2)), L2(), vector_layout(2), seed=1)
        assert not any(map(built_columns, tree.iter_nodes()))
        tree.range_query(np.full(2, 0.5), 0.3)
        assert any(map(built_columns, tree.iter_nodes()))
        build_columns(tree)
        assert_columns_current(tree)
        leaf = next(node for node in tree.iter_nodes() if node.is_leaf)
        with pytest.raises(ValueError):
            leaf.oids[0] = 7
        tree.validate()

    def test_validate_reports_a_direct_write(self, rng):
        tree = build_tree(rng.random((120, 2)))
        build_columns(tree)
        entry = tree.root.entries[0]
        entry.radius = entry.radius + 1.0  # bypasses Node.set_radius
        with pytest.raises(AssertionError, match="stale node columns"):
            tree.validate()

    def test_inserts_leave_no_stale_column(self, rng):
        """Radius enlargement in ChooseSubtree, and the split refresh of
        parent distances, each go through the mutators."""
        tree = build_tree(rng.random((60, 2)))
        enlarged = splits = 0
        for point in rng.uniform(-1.0, 2.0, (80, 2)):
            build_columns(tree)
            radii = sorted(
                e.radius for n in tree.iter_nodes() if not n.is_leaf
                for e in n.entries
            )
            nodes = tree.n_nodes()
            tree.insert(point)
            splits += tree.n_nodes() > nodes
            enlarged += radii != sorted(
                e.radius for n in tree.iter_nodes() if not n.is_leaf
                for e in n.entries
            )
            assert_columns_current(tree)
            tree.validate()
        assert enlarged and splits

    def test_delete_with_reattach_leaves_no_stale_column(
        self, rng, monkeypatch
    ):
        points = rng.random((300, 2))
        tree = build_tree(points, node_size=96)
        reattached = []
        original = MTree._reattach_subtree

        def spy(self, orphan):
            reattached.append(orphan)
            return original(self, orphan)

        monkeypatch.setattr(MTree, "_reattach_subtree", spy)
        for i in rng.permutation(len(points))[:250].tolist():
            build_columns(tree)
            assert tree.delete(points[i], oid=i)
            assert_columns_current(tree)
            tree.validate()
        assert reattached

    @pytest.mark.parametrize(
        "fault", ["shrink_radius", "skew_parent_distance"]
    )
    def test_fault_injectors_leave_no_stale_column(self, fault, rng):
        tree = build_tree(rng.random((200, 2)))
        build_columns(tree)
        record = getattr(StructuralFaultInjector(seed=2), fault)(tree)
        assert_columns_current(tree)
        node = next(n for n in tree.iter_nodes() if id(n) == record["node_id"])
        if fault == "shrink_radius":
            assert record["new_radius"] in node.radii.tolist()
        else:
            assert record["new_dist"] in node.parent_distances.tolist()

    def test_clone_shares_columns_and_copies_only_the_written_path(self):
        """A twin shares every node until it writes one; each insert
        then copies only the nodes on its path (plus the nodes its
        splits make).  The copies share the columns the write leaves
        valid, and the original keeps its nodes, entries, children,
        columns and blocks."""
        rng = np.random.default_rng(8)
        tree = build_tree(rng.random((200, 2)))
        build_columns(tree)
        for node in tree.iter_nodes():
            node.block(tree.metric)
        twin = tree.clone()
        assert twin.root is tree.root
        originals = list(tree.iter_nodes())
        pinned = [
            (
                node.entries,
                node.cached_block(tree.metric),
                node.parent_distances,
                (node.oids, node.objects) if node.is_leaf
                else (node.radii, node.children),
            )
            for node in originals
        ]
        by_objects = {
            tuple(id(e.obj) for e in node.entries): node for node in originals
        }
        copied_internal = 0
        for point in rng.uniform(-1.0, 2.0, (40, 2)):
            before = {id(node) for node in twin.iter_nodes()}
            twin.insert(point)
            fresh = [n for n in twin.iter_nodes() if id(n) not in before]
            assert len(fresh) <= 2 * twin.height + 1
            for node in fresh:
                original = by_objects.get(tuple(id(e.obj) for e in node.entries))
                if original is None or node.is_leaf:
                    continue
                # An internal copy whose child did not split: its parent
                # distances and block are the original's.
                copied_internal += 1
                assert node.parent_distances is original.parent_distances
                assert node.cached_block(twin.metric) is original.cached_block(
                    tree.metric
                )
        assert copied_internal
        assert list(tree.iter_nodes()) == originals
        for node, (entries, block, parents, columns) in zip(originals, pinned):
            assert node.entries is entries
            assert node.cached_block(tree.metric) is block
            assert node.parent_distances is parents
            first, second = (
                (node.oids, node.objects) if node.is_leaf
                else (node.radii, node.children)
            )
            assert first is columns[0] and second is columns[1]
        tree.validate()
        twin.validate()
        assert_columns_current(tree)
        assert_columns_current(twin)
        query = np.full(2, 0.5)
        for grown in (tree, twin):
            assert sorted(grown.range_query(query, 0.4).oids()) == sorted(
                i for i, _o, _d in LinearScanBaseline(
                    list(tree_points(grown)), L2(), 8, 256
                ).range_query(query, 0.4)[0]
            )


def tree_points(tree):
    """The tree's objects in oid order."""
    return [obj for _oid, obj in sorted(tree.iter_objects(), key=lambda t: t[0])]
