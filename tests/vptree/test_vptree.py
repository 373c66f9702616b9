"""Tests for the vp-tree access method."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.datasets.keywords import keyword_dataset
from repro.exceptions import EmptyTreeError, InvalidParameterError
from repro.metrics import L1, L2, CountingMetric, EditDistance, LInf
from repro.vptree import VPTree, collect_vptree_shape
from repro.workloads import LinearScanBaseline


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(0).random((400, 3))


class TestBuild:
    @pytest.mark.parametrize("arity", [2, 3, 5])
    def test_structure_valid(self, points, arity):
        tree = VPTree.build(list(points), L2(), arity=arity, seed=1)
        tree.validate()
        assert len(tree) == 400
        assert tree.n_nodes() == 400  # one object per node

    def test_empty_build(self):
        tree = VPTree.build([], L2())
        assert len(tree) == 0
        assert tree.n_nodes() == 0
        assert tree.height() == 0

    def test_single_object(self):
        tree = VPTree.build([np.array([0.5, 0.5])], L2())
        assert tree.n_nodes() == 1
        result = tree.range_query(np.array([0.5, 0.5]), 0.1)
        assert len(result) == 1

    def test_height_logarithmic(self, points):
        binary = VPTree.build(list(points), L2(), arity=2, seed=2)
        wide = VPTree.build(list(points), L2(), arity=5, seed=2)
        assert wide.height() <= binary.height()
        assert binary.height() <= 3 * np.log2(len(points))

    @pytest.mark.parametrize("selection", ["random", "spread"])
    def test_vantage_selection_variants(self, points, selection):
        tree = VPTree.build(
            list(points[:100]), L2(), vantage_selection=selection, seed=3
        )
        tree.validate()

    def test_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            VPTree(L2(), arity=1)
        with pytest.raises(InvalidParameterError):
            VPTree(L2(), vantage_selection="best")


def build_fingerprint(tree):
    """SHA-256 over every node in preorder: its oid, its cutoffs as
    ``float.hex`` and its child slots, an empty slot marked."""
    digest = hashlib.sha256()
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node is None:
            digest.update(b"-;")
            continue
        cutoffs = ",".join(float(cut).hex() for cut in node.cutoffs)
        digest.update(f"{node.oid}|{cutoffs}|{len(node.children)};".encode())
        stack.extend(reversed(node.children))
    return digest.hexdigest()[:16]


def pinned_objects(space):
    """Full float64 vectors, or words with repeats (integer distances
    that tie)."""
    if space == "edit":
        words = list(keyword_dataset(240, seed=17).words)
        return words + words[::4]
    return list(np.random.default_rng(16).random((300, 5)))


PINNED_METRICS = {"L1": L1, "L2": L2, "Linf": LInf, "edit": EditDistance}

#: (space, arity, selection) -> (fingerprint, distances the build
#: computes), recorded from the node-at-a-time recursive build.  A
#: faster build must make these same trees from these same distances.
PINNED_BUILDS = {
    ("L1", 2, "spread"): ("99576e70b5758b36", 6672),
    ("L1", 2, "random"): ("de35f517414921e3", 1898),
    ("L1", 3, "spread"): ("a412b7245fb620de", 4509),
    ("L1", 3, "random"): ("08c0dfa9b73d517a", 1321),
    ("L1", 4, "spread"): ("c3df9bf655c925ed", 3935),
    ("L1", 4, "random"): ("7058f0b38cb95dac", 1088),
    ("L2", 2, "spread"): ("a78f8dcbbe465d5b", 6672),
    ("L2", 2, "random"): ("b62c2541e48e7e18", 1898),
    ("L2", 3, "spread"): ("9749849d01ed3141", 4509),
    ("L2", 3, "random"): ("d8153593fa809689", 1321),
    ("L2", 4, "spread"): ("b906d8ef889de8c5", 3935),
    ("L2", 4, "random"): ("cc728168a290f06e", 1088),
    ("Linf", 2, "spread"): ("a0f31a5fa23bf2b2", 6672),
    ("Linf", 2, "random"): ("66460be60b7bfa9a", 1898),
    ("Linf", 3, "spread"): ("f5fded2b031b95c3", 4509),
    ("Linf", 3, "random"): ("7b7a2b2383cb5907", 1321),
    ("Linf", 4, "spread"): ("f3620b74539b8503", 3935),
    ("Linf", 4, "random"): ("a6430d444b1ddbe9", 1088),
    ("edit", 2, "spread"): ("7a0843d45eda180b", 6672),
    ("edit", 2, "random"): ("2a6f08e987710e33", 1898),
    ("edit", 3, "spread"): ("e807314e3beb48c2", 4509),
    ("edit", 3, "random"): ("90ab4a6b50e41c26", 1321),
    ("edit", 4, "spread"): ("2fc71b3c7a28ca09", 3935),
    ("edit", 4, "random"): ("3f7172fb07cd7ba4", 1088),
}


class TestBuildIsPinned:
    @pytest.mark.parametrize("selection", ["spread", "random"])
    @pytest.mark.parametrize("arity", [2, 3, 4])
    @pytest.mark.parametrize("space", sorted(PINNED_METRICS))
    def test_same_tree_from_the_same_distances(self, space, arity, selection):
        objects = pinned_objects(space)
        metric = CountingMetric(PINNED_METRICS[space]())
        tree = VPTree.build(
            objects, metric, arity=arity, vantage_selection=selection, seed=7
        )
        assert len(tree) == tree.n_nodes() == len(objects)
        assert (build_fingerprint(tree), metric.calls) == PINNED_BUILDS[
            (space, arity, selection)
        ]


class TestRangeQuery:
    @pytest.mark.parametrize("arity", [2, 3])
    def test_matches_linear_scan(self, points, arity):
        tree = VPTree.build(list(points), LInf(), arity=arity, seed=4)
        baseline = LinearScanBaseline(list(points), LInf(), 12, 4096)
        rng = np.random.default_rng(5)
        for radius in (0.0, 0.05, 0.2, 0.6):
            query = rng.random(3)
            assert sorted(tree.range_query(query, radius).oids()) == sorted(
                i for i, _o, _d in baseline.range_query(query, radius)[0]
            )

    def test_one_distance_per_accessed_node(self, points):
        """The cost-model assumption e(N) = 1."""
        tree = VPTree.build(list(points), L2(), arity=3, seed=6)
        result = tree.range_query(np.random.default_rng(7).random(3), 0.2)
        assert result.stats.dists_computed == result.stats.nodes_accessed

    def test_pruning_saves_work(self, points):
        tree = VPTree.build(list(points), L2(), arity=2, seed=8)
        small = tree.range_query(points[0], 0.01)
        assert small.stats.dists_computed < len(points)

    def test_negative_radius_rejected(self, points):
        tree = VPTree.build(list(points[:10]), L2())
        with pytest.raises(InvalidParameterError):
            tree.range_query(points[0], -1.0)

    @pytest.mark.parametrize("radius", [-1.0, float("nan")])
    def test_invalid_radius_rejected(self, points, radius):
        tree = VPTree.build(list(points[:10]), L2())
        with pytest.raises(InvalidParameterError):
            tree.range_query(points[0], radius)

    def test_empty_tree(self):
        tree = VPTree.build([], L2())
        assert len(tree.range_query(np.zeros(2), 1.0)) == 0


class TestKNNQuery:
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_matches_brute_force(self, points, k):
        tree = VPTree.build(list(points), L2(), arity=3, seed=9)
        baseline = LinearScanBaseline(list(points), L2(), 12, 4096)
        rng = np.random.default_rng(10)
        for _ in range(5):
            query = rng.random(3)
            np.testing.assert_allclose(
                tree.knn_query(query, k).distances(),
                [d for _i, _o, d in baseline.knn_query(query, k)[0]],
                atol=1e-12,
            )

    def test_beats_linear_scan_distance_count(self, points):
        tree = VPTree.build(list(points), L2(), arity=2, seed=11)
        result = tree.knn_query(points[3], 1)
        assert result.stats.dists_computed < len(points)

    def test_validation(self, points):
        tree = VPTree.build(list(points[:10]), L2())
        with pytest.raises(InvalidParameterError):
            tree.knn_query(points[0], 0)
        with pytest.raises(InvalidParameterError):
            tree.knn_query(points[0], 11)
        empty = VPTree.build([], L2())
        with pytest.raises(EmptyTreeError):
            empty.knn_query(points[0], 1)


class TestBoundedKNN:
    """``knn_query(bound=b)`` is the unbounded answer cut at ``b``."""

    @staticmethod
    def assert_bounded_matches(tree, query, k):
        full = tree.knn_query(query, k)
        dists = sorted({d for d in full.distances()})
        # Zero, every answer distance (ties at the bound included), a
        # value between two of them, and infinity.
        bounds = [0.0, *dists, (dists[0] + dists[-1]) / 2, math.inf]
        for bound in bounds:
            cut = tree.knn_query(query, k, bound=bound)
            assert cut.neighbors == [
                n for n in full.neighbors if n[2] <= bound
            ], bound
            assert cut.stats.dists_computed <= full.stats.dists_computed

    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_vectors(self, points, k):
        tree = VPTree.build(list(points), L2(), arity=3, seed=9)
        rng = np.random.default_rng(21)
        for _ in range(5):
            self.assert_bounded_matches(tree, rng.random(3), k)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_strings_with_ties(self, words, k):
        # Integer edit distances and repeated words tie at every bound.
        objects = words + words[: len(words) // 2]
        tree = VPTree.build(objects, EditDistance(), arity=2, seed=12)
        for query in ("casa", "rosa", "x", ""):
            self.assert_bounded_matches(tree, query, min(k, len(objects)))

    def test_bound_prunes(self, points):
        tree = VPTree.build(list(points), L2(), arity=3, seed=9)
        query = points[7] + 0.01
        full = tree.knn_query(query, 10)
        cut = tree.knn_query(query, 10, bound=full.distances()[0])
        assert cut.stats.dists_computed < full.stats.dists_computed

    def test_tie_at_the_bound_survives_rounding(self):
        # 0.9 - 0.7 rounds to 0.20000000000000007: the shell lower bound
        # of the child holding (0.2, 0, 0) lies just above the bound.
        objects = [(0.2, 0.0, 0.0), (0.7, 0.0, 0.0), (0.9, 0.0, 0.0)]
        metric = L2()
        tree = VPTree.build(objects, metric, arity=4, seed=3)
        query = (0.0, 0.0, 0.0)
        bound = metric.distance(query, objects[0])
        result = tree.knn_query(query, 2, bound=bound)
        assert result.neighbors == [(0, objects[0], bound)]

    @pytest.mark.parametrize("bound", [-1.0, float("nan")])
    def test_invalid_bound_rejected(self, points, bound):
        tree = VPTree.build(list(points[:10]), L2())
        with pytest.raises(InvalidParameterError):
            tree.knn_query(points[0], 3, bound=bound)


class TestStringVPTree:
    def test_strings(self, words):
        tree = VPTree.build(words, EditDistance(), arity=2, seed=12)
        tree.validate()
        result = tree.range_query("casa", 1)
        found = {obj for _oid, obj, _d in result.items}
        assert {"casa", "cassa", "cosa", "caso"} <= found


class TestShapeStats:
    def test_shape_summary(self, points):
        tree = VPTree.build(list(points), L2(), arity=3, seed=13)
        shape = collect_vptree_shape(tree)
        assert shape.n_nodes == 400
        assert shape.height == tree.height()
        assert sum(shape.nodes_per_depth.values()) == 400
        assert len(shape.root_cutoffs) == 3
        assert shape.root_cutoffs == sorted(shape.root_cutoffs)

    def test_empty_rejected(self):
        tree = VPTree.build([], L2())
        with pytest.raises(EmptyTreeError):
            collect_vptree_shape(tree)

    def test_cutoffs_near_quantiles(self):
        """The homogeneity assumption: actual cutoffs should track the
        distance-distribution quantiles the model uses."""
        from repro.core import estimate_distance_histogram

        rng = np.random.default_rng(14)
        pts = rng.random((2000, 4))
        metric = LInf()
        tree = VPTree.build(list(pts), metric, arity=2, seed=15)
        hist = estimate_distance_histogram(pts, metric, 1.0, n_bins=100)
        predicted_median = float(hist.quantile(0.5))
        actual_median = tree.root.cutoffs[0]
        assert actual_median == pytest.approx(predicted_median, abs=0.1)
