"""Golden ``dists_computed`` accounting regression.

The paper's cost models (N-MCM / L-MCM) and the router's pruning
certificates consume *exact* distance-computation counts, so swapping
the kernel backend must never change the accounting.  This suite runs a
seeded M-tree / vp-tree / cluster-partitioner workload and

* pins the counter values against committed goldens (computed with the
  numpy fallback, which is always available), and
* asserts the native backend reproduces the same counters *and* the
  same answers bit-for-bit.

The workload metrics (edit distance, L_inf) are integer-valued or
max-based, hence exactly order-independent — answers, not just counts,
are comparable with ``==`` across backends.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cluster import partition_objects
from repro.datasets.keywords import keyword_dataset
from repro.metrics import EditDistance, LInf, kernels
from repro.mtree import bulk_load, string_layout
from repro.vptree import VPTree

GOLDEN = {
    "mtree.range": 4306,
    "mtree.knn": 4490,
    "vptree.range": 2914,
    "vptree.knn": 3987,
    "cluster.dists": 2400,
}


def run_workload(backend):
    """The seeded workload; returns (counters, answer signature)."""
    counters = {}
    answers = []
    with kernels.use_backend(backend):
        words = list(keyword_dataset(400, seed=11).words)
        metric = EditDistance()
        queries = words[::40]

        tree = bulk_load(
            words, metric, string_layout(25, node_size_bytes=512), seed=3
        )
        total = 0
        for q in queries:
            res = tree.range_query(q, 3.0)
            total += res.stats.dists_computed
            answers.append(sorted((oid, d) for oid, _obj, d in res.items))
        counters["mtree.range"] = total

        total = 0
        for q in queries:
            res = tree.knn_query(q, 5)
            total += res.stats.dists_computed
            answers.append(
                sorted((n.oid, n.distance) for n in res.neighbors)
            )
        counters["mtree.knn"] = total

        vp = VPTree.build(words, metric, arity=2, seed=5)
        total = 0
        for q in queries:
            res = vp.range_query(q, 2.0)
            total += res.stats.dists_computed
        counters["vptree.range"] = total
        total = 0
        for q in queries:
            res = vp.knn_query(q, 5)
            total += res.stats.dists_computed
        counters["vptree.knn"] = total

        pts = list(np.random.default_rng(7).random((300, 4)))
        part = partition_objects(pts, LInf(), n_shards=4, d_plus=1.0, seed=2)
        counters["cluster.dists"] = part.dists_computed
        answers.append([int(a) for a in part.assignments])
    return counters, answers


def test_numpy_counters_match_golden():
    counters, _ = run_workload("numpy")
    assert counters == GOLDEN


def test_infinite_knn_bound_keeps_the_vptree_pin():
    """``bound=inf`` is the unbounded search, distance for distance."""
    with kernels.use_backend("numpy"):
        words = list(keyword_dataset(400, seed=11).words)
        vp = VPTree.build(words, EditDistance(), arity=2, seed=5)
        total = sum(
            vp.knn_query(q, 5, bound=math.inf).stats.dists_computed
            for q in words[::40]
        )
    assert total == GOLDEN["vptree.knn"]


def test_scalar_counters_match_golden():
    counters, _ = run_workload("scalar")
    assert counters == GOLDEN


@pytest.mark.skipif(
    not kernels.native_available(),
    reason="native kernel extension not built (or REPRO_NO_NATIVE set)",
)
def test_native_counters_and_answers_match_numpy():
    native_counters, native_answers = run_workload("native")
    numpy_counters, numpy_answers = run_workload("numpy")
    assert native_counters == GOLDEN
    assert native_counters == numpy_counters
    assert native_answers == numpy_answers
