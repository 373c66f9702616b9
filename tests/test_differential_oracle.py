"""Differential oracle: every M-tree range path against a linear scan.

A hypothesis-generated dataset (L2 or L∞ vectors, or words over an
alphabet with BMP and astral characters), a query and a radius go
through ``range_query``, ``range_count`` and ``complex_range_query``
(``and`` and ``or``) on a bulk-loaded M-tree of height 3 or more; the
answer of :class:`~repro.workloads.LinearScanBaseline` over the same
objects is the truth.  Radii cover the edges that matter for a ``<=``
test: zero, exactly an existing distance, and above every distance.

Range answers also run with ``use_parent_pruning=True`` (these pruning
properties also draw full-float64 L1 vectors, where distances are off
in the last bit, and a deterministic case pins two seeds that once lost
a hit at exactly the radius), and every
range answer's item order and ``access_log`` must equal those of
:func:`reference_range`, a node-at-a-time depth-first walk written
apart from the tree's level step.  ``knn_query`` (with and without
parent pruning) runs on datasets with repeats, so the k-th distance is
often tied: the answer must hold the true distance multiset and every
object strictly closer than the k-th.

A second property quarantines one subtree and checks that the range
answer is the truth minus that subtree's objects, and the k-NN answer
the exact k-NN over the reachable objects, each reported with
``completeness < 1`` whenever the query reaches the subtree.

A third property queries stored 8- and 13-d L1, L2 and L∞ vectors on
bulk-loaded and inserted trees, where the order of an L_p sum shows in
its last bit: each must be found at radius zero, and at exactly its
distance from another stored vector, with and without parent pruning.

A fourth property saves bulk-loaded and inserted L1, L2, L∞ and word
trees with ``save_mtree`` and reloads them with ``load_mtree``: the
reloaded tree must equal the saved one bit for bit (node kinds, oids,
parent distances, covering radii, objects), pass ``validate()`` and
answer range and k-NN queries exactly, ties included.

A fifth property pins every view an
:class:`~repro.ingest.IngestService` publishes while small batches
apply, from a single leaf to a tree of height 3 or more: at the end
each view must still have the structure it had when pinned (nodes,
entries, stored values, cached blocks), pass ``validate()`` and answer
range and k-NN queries exactly over the objects it holds.  Two
deterministic cases check the same isolation for deletes on a clone
(with underflow and re-attached subtrees), and that inserts and
deletes on a never-cloned tree keep every node they do not split or
dissolve.

The same truth checks :meth:`~repro.cluster.Router.execute` over
clusters from :func:`~repro.cluster.build_cluster` at 1, 2 and 4
shards: range answers at the same radii, k-NN answers with ties at the
k-th distance, and the answers with one shard killed or quarantined,
which must be the truth over the reachable objects with ``completeness``
naming the missing weight and every prune certified over the reachable
objects.  Hand-built clusters on a line pin the two-phase k-NN scatter:
a tie at the nearest shard's k-th distance held by another shard, a
nearest shard smaller than k, a nearest shard killed or quarantined, a
quarantined subtree inside it, and an annulus prune certified by a
shard that dies in the same query (and then by a revived shard that
dies too).

Every case runs on the numpy kernels and, when the extension is built,
on the native ones.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.cluster import Router, Shard, ShardStats, build_cluster
from repro.ingest import IngestService
from repro.metrics import EditDistance, L1, L2, LInf, kernels
from repro.mtree import MTree, NodeLayout, bulk_load
from repro.mtree.tree import PARENT_PRUNE_SLACK
from repro.persistence import load_mtree, save_mtree
from repro.reliability import QuarantineSet, ShardFaultInjector
from repro.service import QueryRequest
from repro.workloads import LinearScanBaseline

# Leaves hold 4 entries and internal nodes 3, so 30 objects or more
# make a tree of height 3 or more.
LAYOUT = NodeLayout(node_size_bytes=80, object_bytes=8)
MIN_OBJECTS = 30

# The alphabet of the kernel conformance suite: é and € are BMP
# characters, 𝔸 an astral one.
WORD = st.text(alphabet="abcdefgé€𝔸", min_size=0, max_size=10)
COORDINATE = st.floats(min_value=-10, max_value=10, allow_nan=False, width=32)
VECTOR = st.lists(COORDINATE, min_size=3, max_size=3)

SPACES = {
    "L2": (L2(), VECTOR),
    "Linf": (LInf(), VECTOR),
    "edit": (EditDistance(), WORD),
}
#: Full float64 coordinates, so a lossy encoding of the stored vectors
#: (through float32, say) changes their bits, and distances differ from
#: their true values in the last bit.
WIDE_COORDINATE = st.floats(min_value=-10, max_value=10, allow_nan=False)
#: The parent-pruning properties also run on full-float64 L1 vectors,
#: where the rounded parent-distance test can meet a hit at exactly r.
PRUNING_SPACES = {
    **SPACES,
    "L1-f64": (L1(), st.lists(WIDE_COORDINATE, min_size=3, max_size=3)),
}


def backends():
    if kernels.native_available():
        return ["numpy", "native"]
    return [
        "numpy",
        pytest.param(
            "native",
            marks=pytest.mark.skip(reason="native extension not built"),
        ),
    ]


ORACLE_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def draw_case(data, item):
    """Enough objects for a tree of height 3, and two queries."""
    objects = data.draw(
        st.lists(item, min_size=MIN_OBJECTS, max_size=60), label="objects"
    )
    queries = [data.draw(item, label=f"query{i}") for i in range(2)]
    return objects, queries


def draw_radius(data, metric, query, objects):
    """Zero, exactly an existing distance, or above every distance."""
    dists = metric.one_to_many(query, objects)
    kind = data.draw(st.sampled_from(["zero", "existing", "above"]))
    if kind == "zero":
        return 0.0
    if kind == "existing":
        index = data.draw(st.integers(0, len(objects) - 1))
        return float(dists[index])
    return float(dists.max()) + 1.0


def _subtree_objects(node):
    stack = [node]
    while stack:
        node = stack.pop()
        for entry in node.entries:
            if node.is_leaf:
                yield entry.oid, entry.obj
            else:
                stack.append(entry.child)


def truth_map(scan, query, radius):
    matches, _pages, _dists = scan.range_query(query, radius)
    return {oid: dist for oid, _obj, dist in matches}


def reference_range(tree, query, radius, use_parent_pruning=False,
                    quarantine=None):
    """A node-at-a-time depth-first range search: the hits in the order
    the walk meets them, and the ids of the nodes it reads, level by
    level (in walk order within a level).

    Children are pushed in entry order, so they are popped in reverse.
    Quarantined children are skipped before any pruning test, and the
    parent-distance test is ``|d(Q, O_p) - d(O_i, O_p)| <= r_Q + r(N_i)``
    up to the tree's rounding slack.
    """
    metric = tree.metric
    items, visits = [], []
    if quarantine is not None and quarantine.contains(tree.root):
        return items, []
    stack = [(tree.root, None, 0)]
    while stack:
        node, d_parent, depth = stack.pop()
        visits.append((depth, id(node)))
        entries = [
            entry
            for entry in node.entries
            if node.is_leaf
            or quarantine is None
            or not quarantine.contains(entry.child)
        ]
        if use_parent_pruning and d_parent is not None:
            entries = [
                entry
                for entry in entries
                if abs(d_parent - entry.dist_to_parent)
                <= radius
                + (0.0 if node.is_leaf else entry.radius)
                + PARENT_PRUNE_SLACK * (d_parent + entry.dist_to_parent)
            ]
        if not entries:
            continue
        dists = metric.one_to_many(query, [e.obj for e in entries]).tolist()
        for entry, dist in zip(entries, dists):
            if node.is_leaf:
                if dist <= radius:
                    items.append((entry.oid, entry.obj, dist))
            elif dist <= radius + entry.radius:
                stack.append((entry.child, dist, depth + 1))
    visits.sort(key=lambda visit: visit[0])
    return items, [node_id for _depth, node_id in visits]


def assert_matches_reference(tree, query, radius, **options):
    """The tree's range answer, in order, and its access log equal the
    reference walk's; returns the answer and the log."""
    log = []
    result = tree.range_query(query, radius, access_log=log, **options)
    items, visits = reference_range(tree, query, radius, **options)
    assert result.items == items
    assert log == visits
    return result, log


@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("space", sorted(PRUNING_SPACES))
@ORACLE_SETTINGS
@given(data=st.data())
def test_range_paths_match_linear_scan(space, backend, data):
    metric, item = PRUNING_SPACES[space]
    with kernels.use_backend(backend):
        objects, queries = draw_case(data, item)
        radii = [draw_radius(data, metric, q, objects) for q in queries]
        tree = bulk_load(objects, metric, LAYOUT, seed=1)
        assert tree.height >= 3
        scan = LinearScanBaseline(objects, metric, 1, 1)
        truths = [truth_map(scan, q, r) for q, r in zip(queries, radii)]

        for pruning in (False, True):
            result, _log = assert_matches_reference(
                tree, queries[0], radii[0], use_parent_pruning=pruning
            )
            got = {oid: dist for oid, _obj, dist in result.items}
            assert got == truths[0], pruning
            assert result.completeness == 1.0

        count, _stats = tree.range_count(queries[0], radii[0])
        assert count == len(truths[0])

        predicates = list(zip(queries, radii))
        first = metric.one_to_many(queries[0], objects)
        for mode, oids in (
            ("and", truths[0].keys() & truths[1].keys()),
            ("or", truths[0].keys() | truths[1].keys()),
        ):
            complex_result = tree.complex_range_query(predicates, mode=mode)
            got = {oid: dist for oid, _obj, dist in complex_result.items}
            assert got == {oid: float(first[oid]) for oid in oids}, mode


@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("seed", [86, 184])
def test_parent_pruning_keeps_a_hit_at_exactly_the_radius(seed, backend):
    """Full float64 3-d L1 data where the rounded parent-distance test
    used to prune an object at distance exactly ``r`` (20 of 21 and 27
    of 28 hits)."""
    metric = L1()
    with kernels.use_backend(backend):
        rng = np.random.default_rng(seed)
        points = rng.random((40, 3))
        tree = bulk_load(points, metric, LAYOUT, seed=seed)
        query = rng.random(3)
        dists = metric.one_to_many(query, points)
        radius = float(dists[rng.integers(40)])
        truth = {
            oid: float(dist)
            for oid, dist in enumerate(dists)
            if dist <= radius
        }
        for pruning in (False, True):
            result, _log = assert_matches_reference(
                tree, query, radius, use_parent_pruning=pruning
            )
            got = {oid: dist for oid, _obj, dist in result.items}
            assert got == truth, pruning


def draw_repeats(data, objects):
    """``objects`` plus copies of some of them, so distances tie."""
    repeats = data.draw(
        st.lists(st.integers(0, len(objects) - 1), max_size=10),
        label="repeats",
    )
    return objects + [objects[i] for i in repeats]


def neighbor_items(result):
    return [(nb.oid, nb.obj, nb.distance) for nb in result.neighbors]


@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("space", sorted(PRUNING_SPACES))
@ORACLE_SETTINGS
@given(data=st.data())
def test_knn_matches_linear_scan(space, backend, data):
    metric, item = PRUNING_SPACES[space]
    with kernels.use_backend(backend):
        objects, queries = draw_case(data, item)
        objects = draw_repeats(data, objects)
        tree = bulk_load(objects, metric, LAYOUT, seed=1)
        assert tree.height >= 3
        for query in queries:
            dists = [float(d) for d in metric.one_to_many(query, objects)]
            k = draw_k(data, dists)
            for pruning in (False, True):
                result = tree.knn_query(query, k, use_parent_pruning=pruning)
                assert result.completeness == 1.0
                assert [nb.distance for nb in result.neighbors] == sorted(
                    nb.distance for nb in result.neighbors
                )
                assert_knn_exact(
                    neighbor_items(result), dict(enumerate(dists)), k
                )


@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("space", sorted(PRUNING_SPACES))
@ORACLE_SETTINGS
@given(data=st.data())
def test_quarantined_subtree_is_missing_and_reported(space, backend, data):
    metric, item = PRUNING_SPACES[space]
    with kernels.use_backend(backend):
        objects, queries = draw_case(data, item)
        objects = draw_repeats(data, objects)
        radius = draw_radius(data, metric, queries[0], objects)
        tree = bulk_load(objects, metric, LAYOUT, seed=1)
        parents = {
            id(entry.child): node
            for node in tree.iter_nodes()
            if not node.is_leaf
            for entry in node.entries
        }
        nodes = [node for node in tree.iter_nodes() if node is not tree.root]
        victim = nodes[data.draw(st.integers(0, len(nodes) - 1))]
        lost = {oid for oid, _obj in _subtree_objects(victim)}
        quarantine = QuarantineSet()
        quarantine.add(victim)

        scan = LinearScanBaseline(objects, metric, 1, 1)
        truth = truth_map(scan, queries[0], radius)
        dists = [float(d) for d in metric.one_to_many(queries[0], objects)]
        reachable = {o: d for o, d in enumerate(dists) if o not in lost}
        k = draw_k(data, list(reachable.values()))
        for pruning in (False, True):
            result, log = assert_matches_reference(
                tree, queries[0], radius,
                use_parent_pruning=pruning, quarantine=quarantine,
            )
            got = {oid: dist for oid, _obj, dist in result.items}
            assert got == {o: d for o, d in truth.items() if o not in lost}
            assert_honest(result, log, parents[id(victim)], lost, objects)

            log = []
            knn = tree.knn_query(
                queries[0], k, use_parent_pruning=pruning, access_log=log,
                quarantine=quarantine,
            )
            assert_knn_exact(neighbor_items(knn), reachable, k)
            assert_honest(knn, log, parents[id(victim)], lost, objects)


WIDE_METRICS = {"L1": L1(), "L2": L2(), "Linf": LInf()}


@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("build", ["bulk_load", "insert"])
@pytest.mark.parametrize("space", sorted(WIDE_METRICS))
@ORACLE_SETTINGS
@given(data=st.data())
def test_stored_wide_vectors_are_found_at_their_own_distances(
    space, build, backend, data
):
    """From 8 coordinates on, an L_p sum depends on the order it adds
    them in, so the distances a tree stores (covering radii and parent
    distances, from ``pairwise``, ``one_to_many`` or ``distance``) and
    those a search computes must be summed alike.  A stored object must
    then be found at radius zero, and at exactly its distance from
    another stored object, with and without parent pruning, and be its
    own nearest neighbour."""
    metric = WIDE_METRICS[space]
    dim = data.draw(st.sampled_from([8, 13]), label="dim")
    item = st.lists(COORDINATE, min_size=dim, max_size=dim)
    with kernels.use_backend(backend):
        objects = data.draw(
            st.lists(item, min_size=MIN_OBJECTS, max_size=60), label="objects"
        )
        if build == "bulk_load":
            tree = bulk_load(objects, metric, LAYOUT, seed=1)
        else:
            tree = MTree(metric, LAYOUT, seed=1)
            tree.insert_many(objects)
        assert tree.height >= 3
        tree.validate()
        scan = LinearScanBaseline(objects, metric, 1, 1)
        picks = st.integers(0, len(objects) - 1)
        for _ in range(3):
            i, j = data.draw(picks, label="query"), data.draw(picks, label="to")
            query = objects[i]
            dists = [float(d) for d in metric.one_to_many(query, objects)]
            for radius in (0.0, dists[j]):
                truth = truth_map(scan, query, radius)
                assert i in truth and (j in truth or radius == 0.0)
                for pruning in (False, True):
                    result, _log = assert_matches_reference(
                        tree, query, radius, use_parent_pruning=pruning
                    )
                    got = {oid: dist for oid, _obj, dist in result.items}
                    assert got == truth, (radius, pruning)
            k = data.draw(st.integers(1, len(objects)), label="k")
            for pruning in (False, True):
                knn = tree.knn_query(query, k, use_parent_pruning=pruning)
                assert knn.neighbors[0].distance == 0.0
                assert_knn_exact(neighbor_items(knn), dict(enumerate(dists)), k)


# -- Persistence: a saved and reloaded tree ----------------------------------

PERSISTED = {"L1": L1(), "L2": L2(), "Linf": LInf(), "edit": EditDistance()}

PERSIST_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _bits(value):
    """A stored number or vector as its float64 bytes; a string as is."""
    if isinstance(value, str):
        return value
    return np.asarray(value, dtype=np.float64).tobytes()


def structure(tree):
    """The tree by value, depth first in entry order: per node its kind,
    and per entry the oid (leaf) or covering radius and child (internal),
    the parent distance and the object, every number by its bits."""

    def walk(node):
        if node.is_leaf:
            return ("leaf", [
                (entry.oid, _bits(entry.dist_to_parent), _bits(entry.obj))
                for entry in node.entries
            ])
        return ("internal", [
            (
                _bits(entry.radius),
                _bits(entry.dist_to_parent),
                _bits(entry.obj),
                walk(entry.child),
            )
            for entry in node.entries
        ])

    return len(tree), walk(tree.root)


@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("build", ["bulk_load", "insert"])
@pytest.mark.parametrize("space", sorted(PERSISTED))
@PERSIST_SETTINGS
@given(data=st.data())
def test_a_reloaded_tree_is_the_tree_it_saved(space, build, backend, data):
    """``save_mtree`` then ``load_mtree`` gives back the same tree, bit
    for bit (node kinds, oids, parent distances, radii, objects), from
    a tree whose node caches were built or not; the reloaded tree passes
    ``validate()`` and answers range and k-NN queries (ties at the k-th
    distance included) exactly."""
    metric = PERSISTED[space]
    if space == "edit":
        item = WORD
    else:
        dim = data.draw(st.sampled_from([3, 8]), label="dim")
        item = st.lists(WIDE_COORDINATE, min_size=dim, max_size=dim)
    with kernels.use_backend(backend), tempfile.TemporaryDirectory() as where:
        objects, queries = draw_case(data, item)
        objects = draw_repeats(data, objects)
        if build == "bulk_load":
            tree = bulk_load(objects, metric, LAYOUT, seed=1)
        else:
            tree = MTree(metric, LAYOUT, seed=1)
            tree.insert_many(objects)
        assert tree.height >= 3
        if data.draw(st.booleans(), label="warm"):
            warm(tree)
        path = Path(where) / "tree.json"
        save_mtree(tree, path)
        clone = load_mtree(path, metric)
        assert structure(clone) == structure(tree)
        clone.validate()
        scan = LinearScanBaseline(objects, metric, 1, 1)
        for query in queries:
            radius = draw_radius(data, metric, query, objects)
            result = clone.range_query(query, radius)
            got = {oid: dist for oid, _obj, dist in result.items}
            assert got == truth_map(scan, query, radius)
            dists = [float(d) for d in metric.one_to_many(query, objects)]
            k = draw_k(data, dists)
            assert_knn_exact(
                neighbor_items(clone.knn_query(query, k)),
                dict(enumerate(dists)),
                k,
            )


# -- IngestService: every published epoch view -------------------------------

INGEST_SETTINGS = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
MIN_APPLIES = 30


def warm(tree):
    """Build every node's block and columns, as readers of a view do."""
    for node in tree.iter_nodes():
        node.block(tree.metric)
        node.parent_distances
        if node.is_leaf:
            node.oids, node.objects
        else:
            node.radii, node.children


def fingerprint(tree):
    """What a pinned tree must keep: its nodes and their entries (both
    by identity), each entry's stored values, the children and the
    cached blocks."""
    return [
        (
            node,
            node.entries,
            [
                (entry.oid, entry.obj, entry.dist_to_parent)
                if node.is_leaf
                else (entry.obj, entry.radius, entry.dist_to_parent, entry.child)
                for entry in node.entries
            ],
            node.cached_block(tree.metric),
        )
        for node in tree.iter_nodes()
    ]


def assert_unchanged(tree, pinned):
    """``tree`` still has the fingerprint ``pinned``; compares objects
    by identity and stored values by value.  Run it before any query
    on ``tree``, since a query rebuilds a dropped block."""
    now = fingerprint(tree)
    assert len(now) == len(pinned)
    for (node, entries, values, block), (node0, entries0, values0, block0) in zip(
        now, pinned
    ):
        assert node is node0
        assert len(entries) == len(entries0)
        assert all(a is b for a, b in zip(entries, entries0))
        assert len(values) == len(values0)
        for value, value0 in zip(values, values0):
            assert all(
                a is b or a == b for a, b in zip(value, value0)
            ), (value, value0)
        assert block is block0


@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("space", sorted(SPACES))
@INGEST_SETTINGS
@given(data=st.data())
def test_every_published_ingest_view_stays_exact(space, backend, data):
    """Batches of one or two objects apply while every published view
    stays pinned; the tree grows from one leaf to height 3 or more, so
    leaves and internal nodes split and the root grows.  At the end
    each view still has the fingerprint it had when pinned, passes
    ``validate()``, and answers range and k-NN queries (ties at the
    k-th distance included) exactly over the objects it holds."""
    metric, item = SPACES[space]
    with kernels.use_backend(backend), tempfile.TemporaryDirectory() as where:
        objects = data.draw(
            st.lists(item, min_size=2 * MIN_APPLIES, max_size=80),
            label="objects",
        )
        objects = draw_repeats(data, objects)
        queries = [data.draw(item, label=f"query{i}") for i in range(2)]
        service = IngestService(where, metric, LAYOUT, fsync="never")
        service.recover()
        service.append(objects)
        views = []
        while service.pending_count():
            service.apply(max_objects=data.draw(st.integers(1, 2)))
            view = service.view()
            warm(view.tree)
            views.append((view, fingerprint(view.tree)))
        service.close()
        assert len(views) >= MIN_APPLIES
        assert views[0][0].tree.height == 1
        assert views[-1][0].tree.height >= 3
        for view, pinned in views:
            assert_unchanged(view.tree, pinned)
        for view, _pinned in views:
            view.tree.validate()
            present = objects[:view.seq]
            assert len(view.tree) == len(present)
            scan = LinearScanBaseline(present, metric, 1, 1)
            for query in queries:
                radius = draw_radius(data, metric, query, present)
                result = view.tree.range_query(query, radius)
                got = {oid: dist for oid, _obj, dist in result.items}
                assert got == truth_map(scan, query, radius)
                dists = [float(d) for d in metric.one_to_many(query, present)]
                k = draw_k(data, dists)
                assert_knn_exact(
                    neighbor_items(view.tree.knn_query(query, k)),
                    dict(enumerate(dists)),
                    k,
                )


def reattach_tree(rng):
    """An inserted L2 tree whose deletes underflow internal nodes, so
    subtrees are re-attached (the layout of
    ``test_reattach_split_propagates_up``), and its points."""
    points = rng.random((300, 2))
    layout = NodeLayout(node_size_bytes=96, object_bytes=8, min_utilization=0.3)
    tree = MTree(L2(), layout, seed=0)
    tree.insert_many(points)
    return tree, points


@pytest.fixture
def reattached(monkeypatch):
    """The orphans ``MTree._reattach_subtree`` is called with."""
    calls = []
    original = MTree._reattach_subtree

    def spy(self, orphan):
        calls.append(orphan)
        return original(self, orphan)

    monkeypatch.setattr(MTree, "_reattach_subtree", spy)
    return calls


@pytest.mark.parametrize("backend", backends())
def test_deletes_on_a_twin_leave_the_original_unchanged(backend, reattached):
    with kernels.use_backend(backend):
        rng = np.random.default_rng(29)
        tree, points = reattach_tree(rng)
        warm(tree)
        pinned = fingerprint(tree)
        twin = tree.clone()
        gone = rng.permutation(len(points))[:150].tolist()
        for i in gone:
            assert twin.delete(points[i], oid=i)
        assert reattached
        twin.validate()
        assert_unchanged(tree, pinned)
        tree.validate()
        query = np.full(2, 0.5)
        scan = LinearScanBaseline(list(points), L2(), 1, 1)
        truth = truth_map(scan, query, 0.3)
        assert set(tree.range_query(query, 0.3).oids()) == truth.keys()
        assert set(twin.range_query(query, 0.3).oids()) == truth.keys() - set(
            gone
        )


def lost_nodes(tree, before):
    """The nodes of ``before`` no longer in ``tree``."""
    now = {id(node) for node in tree.iter_nodes()}
    return [node for node in before if id(node) not in now]


@pytest.mark.parametrize("backend", backends())
def test_a_never_cloned_tree_keeps_its_nodes(backend, reattached):
    """Inserts and deletes write a never-cloned tree in place: the only
    nodes that leave it are those that overflowed and split, those
    that underflowed and were dissolved, and a root collapsed onto its
    only child."""
    with kernels.use_backend(backend):
        rng = np.random.default_rng(29)
        tree, points = reattach_tree(rng)
        layout = tree.layout

        def capacity(node):
            if node.is_leaf:
                return layout.leaf_capacity
            return layout.internal_capacity

        def floor(node):
            if node.is_leaf:
                return max(1, layout.leaf_min_entries)
            return max(2, layout.internal_min_entries)

        splits = 0
        for point in rng.random((60, 2)):
            before = list(tree.iter_nodes())
            tree.insert(point)
            lost = lost_nodes(tree, before)
            assert all(len(node) > capacity(node) for node in lost)
            splits += bool(lost)
        assert splits
        for i in rng.permutation(len(points))[:150].tolist():
            before = list(tree.iter_nodes())
            root = tree.root
            assert tree.delete(points[i], oid=i)
            for node in lost_nodes(tree, before):
                assert (
                    len(node) > capacity(node)
                    or len(node) < floor(node)
                    or (node is root and len(node) == 1)
                ), node
        assert reattached
        tree.validate()


def assert_honest(result, log, parent, lost, objects):
    """The damage is reported when the query reaches it: when it reads
    the victim's parent, whose entries are checked before pruning."""
    if id(parent) in log:
        assert result.skipped_subtrees == 1
        assert result.skipped_objects == len(lost)
        assert result.completeness < 1
        assert math.isclose(
            result.completeness,
            (len(objects) - len(lost)) / len(objects),
        )
    else:
        assert result.skipped_subtrees == 0
        assert result.completeness == 1.0


# -- Router: scatter-gather over vp-tree shards ------------------------------

SHARD_COUNTS = [1, 2, 4]

#: Above every distance the generated objects can have (coordinates in
#: [-10, 10]^3, words of at most 10 characters): the shards' RDD bound.
D_PLUS = {"L2": 35.0, "Linf": 21.0, "edit": 11.0}

ROUTER_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _key(obj):
    return tuple(obj) if isinstance(obj, list) else obj


def draw_cluster(data, space, n_shards):
    """A cluster over objects with repeats (so k-NN meets ties on every
    metric), with at least one distinct object per shard."""
    metric, item = SPACES[space]
    objects, queries = draw_case(data, item)
    repeats = data.draw(
        st.lists(st.integers(0, len(objects) - 1), max_size=10),
        label="repeats",
    )
    objects = objects + [objects[i] for i in repeats]
    assume(len({_key(obj) for obj in objects}) >= n_shards)
    router = build_cluster(
        objects, metric, n_shards=n_shards, d_plus=D_PLUS[space], seed=1,
        # A loaded machine must not turn a slow shard into a failed one.
        shard_timeout_s=60.0,
    )
    return router, metric, objects, queries


def draw_k(data, dists):
    """A k whose k-th distance is tied with the next one, when the
    dataset has such a tie; any k otherwise."""
    ordered = sorted(dists)
    tied = [k for k in range(1, len(ordered)) if ordered[k - 1] == ordered[k]]
    if tied and data.draw(st.booleans(), label="at a tie"):
        return data.draw(st.sampled_from(tied), label="k")
    return data.draw(st.integers(1, len(ordered)), label="k")


def items_map(outcome):
    return {oid: dist for oid, _obj, dist in outcome.items}


def assert_knn_exact(items, dists, k):
    """The k-NN answer ``items`` (``(oid, obj, distance)``) over the
    objects whose true distances are ``dists`` (oid -> distance): the
    right distance multiset, every object strictly closer than the k-th,
    true distances, no repeats."""
    ordered = sorted(dists.values())
    take = min(k, len(ordered))
    got = {oid: dist for oid, _obj, dist in items}
    assert len(items) == len(got) == take
    assert sorted(got.values()) == ordered[:take]
    for oid, dist in got.items():
        assert dists[oid] == dist
    if take:
        kth = ordered[take - 1]
        assert {o for o, d in dists.items() if d < kth} <= got.keys()


def assert_prunes_certified(outcome, router, dists, k):
    """Every prune re-proves: a zero annulus count at the radius it names,
    and for a k-NN that radius reaches the true k-th distance over
    ``dists`` (oid -> distance of the reachable objects)."""
    ordered = sorted(dists.values())
    for report in outcome.shard_reports:
        if report.status != "pruned":
            continue
        stats = router.shards[report.shard_id].stats
        assert report.exact_candidates == 0
        assert stats.candidate_count(report.pivot_dist, report.prune_radius) == 0
        if ordered:
            assert report.prune_radius >= ordered[min(k, len(ordered)) - 1]


def assert_dists_within_unbounded(outcome, router, query, k):
    """The routed k-NN computes no more distances than the pivots plus
    an unbounded search on every shard it scattered to."""
    unbounded = sum(
        router.shards[r.shard_id]
        .tree.knn_query(query, min(k, r.n_objects))
        .stats.dists_computed
        for r in outcome.shard_reports
        if r.status != "quarantined" and r.prune_rule != "annulus"
    )
    assert outcome.dists <= len(router.shards) + unbounded


def assert_missing_weight(outcome, shard, total):
    """``completeness`` is 1 minus the shard's weight unless the cost
    model pruned the shard, which then costs the answer nothing."""
    report = outcome.shard_reports[shard.shard_id]
    if report.status == "pruned":
        assert outcome.completeness == 1.0
    else:
        assert report.status in ("failed", "quarantined")
        assert outcome.degraded
        assert outcome.completeness == pytest.approx(
            1.0 - shard.n_objects / total
        )


@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("space", sorted(SPACES))
@ROUTER_SETTINGS
@given(data=st.data())
def test_router_range_matches_linear_scan(space, n_shards, backend, data):
    with kernels.use_backend(backend):
        router, metric, objects, queries = draw_cluster(data, space, n_shards)
        scan = LinearScanBaseline(objects, metric, 1, 1)
        for query in queries:
            radius = draw_radius(data, metric, query, objects)
            outcome = router.execute(
                QueryRequest("range", query, radius=radius)
            )
            assert outcome.ok
            assert outcome.completeness == 1.0
            assert items_map(outcome) == truth_map(scan, query, radius)


@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("space", sorted(SPACES))
@ROUTER_SETTINGS
@given(data=st.data())
def test_router_knn_matches_linear_scan(space, n_shards, backend, data):
    with kernels.use_backend(backend):
        router, metric, objects, queries = draw_cluster(data, space, n_shards)
        for query in queries:
            dists = [float(d) for d in metric.one_to_many(query, objects)]
            k = draw_k(data, dists)
            outcome = router.execute(QueryRequest("knn", query, k=k))
            assert outcome.ok
            assert outcome.completeness == 1.0
            assert_knn_exact(outcome.items, dict(enumerate(dists)), k)
            assert_prunes_certified(outcome, router, dict(enumerate(dists)), k)
            assert_dists_within_unbounded(outcome, router, query, k)


@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("space", sorted(SPACES))
@ROUTER_SETTINGS
@given(data=st.data())
def test_router_with_killed_shard_answers_the_reachable_truth(
    space, n_shards, backend, data
):
    with kernels.use_backend(backend):
        router, metric, objects, queries = draw_cluster(data, space, n_shards)
        victim = router.shards[data.draw(st.integers(0, n_shards - 1))]
        ShardFaultInjector(seed=1).kill(victim)
        lost = set(victim.oids)
        scan = LinearScanBaseline(objects, metric, 1, 1)
        for query in queries:
            radius = draw_radius(data, metric, query, objects)
            outcome = router.execute(
                QueryRequest("range", query, radius=radius)
            )
            assert outcome.ok
            truth = truth_map(scan, query, radius)
            assert items_map(outcome) == {
                o: d for o, d in truth.items() if o not in lost
            }
            assert_missing_weight(outcome, victim, len(objects))

            dists = [float(d) for d in metric.one_to_many(query, objects)]
            k = draw_k(data, dists)
            outcome = router.execute(QueryRequest("knn", query, k=k))
            assert outcome.ok
            assert_missing_weight(outcome, victim, len(objects))
            # The exact k-NN over the reachable objects, and every prune
            # certified over them: in the query that finds the dead
            # shard, an annulus prune made before the death was seen
            # must be re-proved without it.
            reachable = {o: d for o, d in enumerate(dists) if o not in lost}
            assert_knn_exact(outcome.items, reachable, k)
            assert_prunes_certified(outcome, router, reachable, k)


@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
@pytest.mark.parametrize("space", sorted(SPACES))
@ROUTER_SETTINGS
@given(data=st.data())
def test_router_with_quarantined_shard_answers_the_reachable_truth(
    space, n_shards, backend, data
):
    with kernels.use_backend(backend):
        router, metric, objects, queries = draw_cluster(data, space, n_shards)
        victim = router.shards[data.draw(st.integers(0, n_shards - 1))]
        router.quarantine.add(victim.shard_id, "manual")
        lost = set(victim.oids)
        scan = LinearScanBaseline(objects, metric, 1, 1)
        for query in queries:
            radius = draw_radius(data, metric, query, objects)
            outcome = router.execute(
                QueryRequest("range", query, radius=radius)
            )
            assert outcome.ok
            truth = truth_map(scan, query, radius)
            assert items_map(outcome) == {
                o: d for o, d in truth.items() if o not in lost
            }
            report = outcome.shard_reports[victim.shard_id]
            assert report.status == "quarantined"
            assert_missing_weight(outcome, victim, len(objects))

            # The k-NN bound skips the quarantined shard, so the answer
            # is the exact k-NN over the reachable objects.
            dists = [float(d) for d in metric.one_to_many(query, objects)]
            k = draw_k(data, dists)
            outcome = router.execute(QueryRequest("knn", query, k=k))
            assert outcome.ok
            assert_missing_weight(outcome, victim, len(objects))
            assert_knn_exact(
                outcome.items,
                {o: d for o, d in enumerate(dists) if o not in lost},
                k,
            )


# -- Router: the two-phase k-NN scatter on hand-built clusters ---------------
#
# Objects lie on the x axis and the query is the origin, so every
# distance is |x| on both vector metrics.  Shard 0 has the nearest pivot
# and answers first; its 2nd distance is 0.2.  Shard 1 survives the
# annulus prune but holds nothing within 0.2, so the bound prunes it.
# Shard 2 holds a copy of shard 0's object at 0.2: a tie at the bound.

LINE = [
    (0.5, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]),
    (-0.55, [-0.5, -0.55, -0.6]),
    (0.7, [0.2, 0.7, 0.9]),
]
ORIGIN = (0.0, 0.0, 0.0)


def _point(x):
    return (x, 0.0, 0.0)


def line_cluster(metric, line=LINE):
    """One shard per ``line`` group, pivot given, global oids in order."""
    shards, oid = [], 0
    for shard_id, (pivot, xs) in enumerate(line):
        objects = [_point(x) for x in xs]
        shards.append(
            Shard(
                shard_id=shard_id,
                objects=objects,
                oids=range(oid, oid + len(objects)),
                metric=metric,
                stats=ShardStats.from_objects(
                    shard_id, objects, _point(pivot), metric, d_plus=3.0
                ),
                seed=1,
            )
        )
        oid += len(objects)
    router = Router(shards, metric, shard_timeout_s=60.0)
    dists = {
        o: abs(x) for o, x in enumerate(x for _p, xs in line for x in xs)
    }
    return router, dists


LINE_METRICS = {"L2": L2(), "Linf": LInf()}


@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("space", sorted(LINE_METRICS))
def test_knn_bound_keeps_a_tie_held_by_another_shard(space, backend):
    with kernels.use_backend(backend):
        router, dists = line_cluster(LINE_METRICS[space])
        outcome = router.execute(QueryRequest("knn", ORIGIN, k=2))
        assert outcome.ok and outcome.completeness == 1.0
        assert_knn_exact(outcome.items, dists, 2)
        first, beyond, tie = outcome.shard_reports
        assert first.status == "ok" and first.prune_rule is None
        assert beyond.status == "pruned"
        assert beyond.prune_rule == "knn_bound"
        assert beyond.prune_radius == pytest.approx(0.2)
        # The copy at exactly the bound comes back; nothing beyond it.
        assert tie.status == "ok"
        assert [d for _o, _obj, d in tie.items] == [first.items[1][2]]
        assert_prunes_certified(outcome, router, dists, 2)
        assert_dists_within_unbounded(outcome, router, ORIGIN, 2)


@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("space", sorted(LINE_METRICS))
def test_nearest_shard_smaller_than_k_gives_no_bound(space, backend):
    with kernels.use_backend(backend):
        router, dists = line_cluster(LINE_METRICS[space])
        k = len(LINE[0][1]) + 2
        outcome = router.execute(QueryRequest("knn", ORIGIN, k=k))
        assert outcome.ok and outcome.completeness == 1.0
        assert_knn_exact(outcome.items, dists, k)
        assert outcome.shard_reports[0].status == "ok"
        assert len(outcome.shard_reports[0].items) < k
        assert all(r.prune_rule != "knn_bound" for r in outcome.shard_reports)
        assert_prunes_certified(outcome, router, dists, k)


@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("space", sorted(LINE_METRICS))
@pytest.mark.parametrize("fault", ["killed", "quarantined"])
def test_unreachable_nearest_shard_answers_the_reachable_truth(
    fault, space, backend
):
    with kernels.use_backend(backend):
        router, dists = line_cluster(LINE_METRICS[space])
        nearest = router.shards[0]
        if fault == "killed":
            ShardFaultInjector(seed=1).kill(nearest)
        else:
            router.quarantine.add(nearest.shard_id, "manual")
        reachable = {o: d for o, d in dists.items() if o not in nearest.oids}
        # The first query discovers a killed shard, the second skips it.
        for _ in range(2):
            outcome = router.execute(QueryRequest("knn", ORIGIN, k=2))
            assert outcome.ok
            assert outcome.shard_reports[0].status in ("failed", "quarantined")
            assert_missing_weight(outcome, nearest, len(dists))
            assert_knn_exact(outcome.items, reachable, 2)
            assert all(
                r.prune_rule != "knn_bound" for r in outcome.shard_reports
            )
            assert_prunes_certified(outcome, router, reachable, 2)
        assert router.quarantine.contains(nearest.shard_id)


@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("space", sorted(LINE_METRICS))
def test_quarantined_subtree_in_the_nearest_shard_still_bounds(
    space, backend
):
    with kernels.use_backend(backend):
        router, dists = line_cluster(LINE_METRICS[space])
        nearest = router.shards[0]
        victim = next(c for c in nearest.tree.root.children if c is not None)
        nearest.quarantine.add(victim)
        lost, stack = set(), [victim]
        while stack:
            node = stack.pop()
            lost.add(nearest.oids[node.oid])
            stack.extend(c for c in node.children if c is not None)
        reachable = {o: d for o, d in dists.items() if o not in lost}
        outcome = router.execute(QueryRequest("knn", ORIGIN, k=2))
        assert outcome.ok
        first = outcome.shard_reports[0]
        assert first.status == "ok" and first.completeness < 1.0
        assert outcome.degraded
        assert outcome.completeness == pytest.approx(
            1.0 - len(lost) / len(dists)
        )
        assert_knn_exact(outcome.items, reachable, 2)
        # The bound came from the reachable part of shard 0: still an
        # upper bound on the reachable k-th distance.
        assert_prunes_certified(outcome, router, reachable, 2)
        assert_dists_within_unbounded(outcome, router, ORIGIN, 2)


# Shard 0's members bound the 2nd distance by 0.11, which prunes shard 2
# (nothing within 0.11) by the annulus rule; killing shard 0 leaves
# shard 2 holding the two nearest reachable objects, at 0.3 and 0.35.
DEAD_BOUND_LINE = [
    (0.1, [0.1, 0.11, 0.12]),
    (1.0, [0.5, 1.0, 1.5]),
    (-0.3, [-0.3, -0.35]),
]

# Shard 0's members bound the 2nd distance by 0.11 and prune the other
# three by the annulus rule.  With shard 0 dead the bound over the rest
# is 0.35, set by shard 1's members, which revives shard 1 alone; it is
# dead too, and the bound without it, 0.64, revives shards 2 and 3,
# which hold the two nearest reachable objects, at 0.5 and 0.6.
TWO_DEAD_LINE = [
    (0.1, [0.1, 0.11, 0.12]),
    (-0.3, [-0.3, -0.35]),
    (1.0, [0.5, 1.0, 1.5]),
    (-0.6, [-0.6, -0.62]),
]


@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("space", sorted(LINE_METRICS))
@pytest.mark.parametrize(
    "line, n_dead, live",
    [(DEAD_BOUND_LINE, 1, ["pruned", "ok"]), (TWO_DEAD_LINE, 2, ["ok", "ok"])],
    ids=["one-dead", "two-dead"],
)
def test_annulus_prune_certified_by_a_dead_shard_is_reproved(
    line, n_dead, live, space, backend
):
    with kernels.use_backend(backend):
        router, dists = line_cluster(LINE_METRICS[space], line)
        dead = router.shards[:n_dead]
        injector = ShardFaultInjector(seed=1)
        for shard in dead:
            injector.kill(shard)
        lost = {oid for shard in dead for oid in shard.oids}
        reachable = {o: d for o, d in dists.items() if o not in lost}
        # The first query finds the deaths; the second skips the shards.
        for _ in range(2):
            outcome = router.execute(QueryRequest("knn", ORIGIN, k=2))
            assert outcome.ok and outcome.degraded
            reports = outcome.shard_reports
            assert all(
                r.status in ("failed", "quarantined") for r in reports[:n_dead]
            )
            assert [r.status for r in reports[n_dead:]] == live
            assert outcome.completeness == pytest.approx(
                1.0 - len(lost) / len(dists)
            )
            assert_knn_exact(outcome.items, reachable, 2)
            assert_prunes_certified(outcome, router, reachable, 2)
        assert all(router.quarantine.contains(s.shard_id) for s in dead)
