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

Every case runs on the numpy kernels and, when the extension is built,
on the native ones.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.metrics import EditDistance, L2, LInf, kernels
from repro.mtree import NodeLayout, bulk_load
from repro.reliability import QuarantineSet
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
