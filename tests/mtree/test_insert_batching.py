"""Batched insert distances, the partial-failure report, and `clone`.

The insert path routes subtree choice and parent-distance refresh
through ``Metric.one_to_many``; these tests pin the *total* distance
count against a scalar reference so batching can never silently change
how many distances an insert pays.
"""

from __future__ import annotations

import numpy as np

from repro import observability
from repro.metrics import L2, CountingMetric, FunctionMetric
from repro.mtree import InsertFailure, InsertReport, MTree, vector_layout

SEED = 20260808
LAYOUT = vector_layout(3, node_size_bytes=512)


def _points(n, seed=SEED):
    return np.random.default_rng(seed).random((n, 3))


class TestBatchedInsertCounters:
    def test_batched_matches_scalar_reference(self):
        """one_to_many batching pays exactly the per-pair scalar count."""
        points = _points(200)
        counting = CountingMetric(L2())  # counts len(ys) per one_to_many
        batched = MTree(counting, LAYOUT)
        batched.insert_many(points)

        calls = [0]
        base = L2()

        def scalar(x, y):
            calls[0] += 1
            return base.distance(x, y)

        # FunctionMetric has no native one_to_many: every batched call
        # decomposes into scalar calls, one per pair.
        reference = MTree(FunctionMetric(scalar, name="l2"), LAYOUT)
        reference.insert_many(points)
        assert counting.calls == calls[0]
        batched.validate()
        reference.validate()

    def test_insert_distance_count_pinned(self):
        """Golden total for a seeded 200-point build; re-derive on
        legitimate algorithm changes."""
        points = _points(200)
        counting = CountingMetric(L2())
        tree = MTree(counting, LAYOUT)
        tree.insert_many(points)
        assert counting.calls == 8283

    def test_registry_mirrors_insert_distances(self):
        points = _points(120)
        observability.install()
        try:
            tree = MTree(L2(), LAYOUT)
            tree.insert_many(points)
            reg = observability.get_registry()
            assert reg.counter_value("mtree.inserts") == 120
            # Routing + parent-refresh + leaf distances are mirrored into
            # the registry; split-internal distances are not, so the
            # registry count is a positive lower bound.
            mirrored = reg.counter_value(
                "mtree.dists_computed", kind="insert"
            )
            counting = CountingMetric(L2())
            twin = MTree(counting, LAYOUT)
            twin.insert_many(points)
            assert 0 < mirrored <= counting.calls
        finally:
            observability.uninstall()


class TestInsertReport:
    def test_report_is_the_legacy_oid_list(self):
        tree = MTree(L2(), LAYOUT)
        report = tree.insert_many(_points(10))
        assert isinstance(report, InsertReport)
        assert isinstance(report, list)
        assert report == list(range(10))
        assert report.oids == list(range(10))
        assert report.ok
        assert report.failures == []

    def test_partial_failures_do_not_abort_the_batch(self):
        tree = MTree(L2(), LAYOUT)
        tree.insert_many(_points(40))  # deep enough to route via distances
        batch = [
            _points(1, seed=1)[0],
            "poison",
            _points(1, seed=2)[0],
            np.zeros(7),  # wrong dimensionality
            _points(1, seed=4)[0],
        ]
        report = tree.insert_many(batch)
        assert len(report) == 3  # the three good objects got oids
        assert not report.ok
        assert [f.index for f in report.failures] == [1, 3]
        assert all(isinstance(f, InsertFailure) for f in report.failures)
        assert all(f.kind and f.error for f in report.failures)
        tree.validate()
        assert len(tree) == 43

    def test_failure_report_serializes(self):
        failure = InsertFailure(index=3, error="boom", kind="TypeError")
        assert failure.to_dict() == {
            "index": 3,
            "error": "boom",
            "kind": "TypeError",
        }


class TestClone:
    def test_clone_is_independent_and_free(self):
        """A twin shares the original's nodes and computes no distance.
        Growing it costs the distances growing a never-cloned tree
        costs (a copy computes none) and leaves the original's nodes
        and entries as they were."""
        points = _points(150)
        counting = CountingMetric(L2())
        tree = MTree(counting, LAYOUT)
        tree.insert_many(points)
        before = counting.calls
        twin = tree.clone()
        assert counting.calls == before  # zero distances computed
        assert twin.root is tree.root
        twin.validate()
        assert len(twin) == len(tree)
        nodes = [(node, node.entries) for node in tree.iter_nodes()]
        # Growing the clone leaves the original untouched.
        extra = _points(30, seed=7)
        start = counting.calls
        twin.insert_many(extra)
        grown = counting.calls - start
        assert len(twin) == 180
        assert len(tree) == 150
        assert [(node, node.entries) for node in tree.iter_nodes()] == nodes
        tree.validate()
        twin.validate()
        query = points[0]
        assert sorted(tree.range_query(query, 0.3).oids()) == sorted(
            oid for oid in twin.range_query(query, 0.3).oids() if oid < 150
        )
        alone = CountingMetric(L2())
        in_place = MTree(alone, LAYOUT)
        in_place.insert_many(points)
        start = alone.calls
        in_place.insert_many(extra)
        assert alone.calls - start == grown
    def test_clone_continues_oid_sequence(self):
        tree = MTree(L2(), LAYOUT)
        tree.insert_many(_points(5))
        twin = tree.clone()
        assert twin.insert(_points(1, seed=11)[0]) == 5
