"""Differential oracle: every M-tree range path against a linear scan.

A hypothesis-generated dataset (L2 or L∞ vectors, or words over an
alphabet with BMP and astral characters), a query and a radius go
through ``range_query``, ``range_count`` and ``complex_range_query``
(``and`` and ``or``) on a bulk-loaded M-tree of height 3 or more; the
answer of :class:`~repro.workloads.LinearScanBaseline` over the same
objects is the truth.  Radii cover the edges that matter for a ``<=``
test: zero, exactly an existing distance, and above every distance.

A second property quarantines one subtree and checks that the range
answer is the truth minus that subtree's objects, reported with
``completeness < 1`` whenever the query reaches the subtree.

The same truth checks :meth:`~repro.cluster.Router.execute` over
clusters from :func:`~repro.cluster.build_cluster` at 1, 2 and 4
shards: range answers at the same radii, k-NN answers with ties at the
k-th distance, and the answers with one shard killed or quarantined,
which must be the truth over the reachable objects with ``completeness``
naming the missing weight.

Every case runs on the numpy kernels and, when the extension is built,
on the native ones.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.metrics import EditDistance, L2, LInf, kernels
from repro.mtree import NodeLayout, bulk_load
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
VECTOR = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False, width=32),
    min_size=3,
    max_size=3,
)

SPACES = {
    "L2": (L2(), VECTOR),
    "Linf": (LInf(), VECTOR),
    "edit": (EditDistance(), WORD),
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


@pytest.mark.parametrize("backend", backends())
@pytest.mark.parametrize("space", sorted(SPACES))
@ORACLE_SETTINGS
@given(data=st.data())
def test_range_paths_match_linear_scan(space, backend, data):
    metric, item = SPACES[space]
    with kernels.use_backend(backend):
        objects, queries = draw_case(data, item)
        radii = [draw_radius(data, metric, q, objects) for q in queries]
        tree = bulk_load(objects, metric, LAYOUT, seed=1)
        assert tree.height >= 3
        scan = LinearScanBaseline(objects, metric, 1, 1)
        truths = [truth_map(scan, q, r) for q, r in zip(queries, radii)]

        result = tree.range_query(queries[0], radii[0])
        got = {oid: dist for oid, _obj, dist in result.items}
        assert got == truths[0]
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
@pytest.mark.parametrize("space", sorted(SPACES))
@ORACLE_SETTINGS
@given(data=st.data())
def test_quarantined_subtree_is_missing_and_reported(space, backend, data):
    metric, item = SPACES[space]
    with kernels.use_backend(backend):
        objects, queries = draw_case(data, item)
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
        log = []
        result = tree.range_query(
            queries[0], radius, access_log=log, quarantine=quarantine
        )
        got = {oid: dist for oid, _obj, dist in result.items}
        assert got == {o: d for o, d in truth.items() if o not in lost}
        # The damage is reported when the query reaches it: when it reads
        # the victim's parent, whose entries are checked before pruning.
        if id(parents[id(victim)]) in log:
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


def assert_knn_exact(outcome, dists, k):
    """The k-NN answer over the objects whose true distances are
    ``dists`` (oid -> distance): the right distance multiset, every
    object strictly closer than the k-th, true distances, no repeats."""
    ordered = sorted(dists.values())
    take = min(k, len(ordered))
    got = items_map(outcome)
    assert len(outcome.items) == len(got) == take
    assert sorted(got.values()) == ordered[:take]
    for oid, dist in got.items():
        assert dists[oid] == dist
    if take:
        kth = ordered[take - 1]
        assert {o for o, d in dists.items() if d < kth} <= got.keys()


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
            assert_knn_exact(outcome, dict(enumerate(dists)), k)


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
            # Every reachable object of the true k-NN is in the answer.
            kth = sorted(dists)[k - 1]
            assert {
                o for o, d in enumerate(dists) if d < kth and o not in lost
            } <= items_map(outcome).keys()


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
                outcome,
                {o: d for o, d in enumerate(dists) if o not in lost},
                k,
            )
