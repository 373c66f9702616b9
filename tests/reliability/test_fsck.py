"""Structural fsck: detection of every injected fault kind, page-graph
verification, and bulkload-based repair."""

from __future__ import annotations

import numpy as np
import pytest

from repro.context import Deadline
from repro.datasets import clustered_dataset
from repro.exceptions import (
    DeadlineExceededError,
    EmptyTreeError,
    InvalidParameterError,
    StructuralCorruptionError,
)
from repro.mtree import (
    LeafEntry,
    MTree,
    Node,
    RoutingEntry,
    bulk_load,
    vector_layout,
)
from repro.reliability import (
    FAULT_KINDS,
    QuarantineSet,
    StructuralFaultInjector,
    fsck_mtree,
    fsck_page_graph,
    fsck_vptree,
    loads_artifact,
    materialize_page_graph,
    mtree_scrub_units,
    repair_mtree,
    repair_vptree,
    vptree_scrub_units,
)
from repro.service import GenerationStore
from repro.storage import PageStore
from repro.vptree import VPTree

CORPUS_SEEDS = (0, 1, 2, 3, 4)
MTREE_INJECTIONS = (
    ("shrink_radius", "radius_violation"),
    ("skew_parent_distance", "parent_distance_skew"),
    ("drop_entry", "object_count_mismatch"),
)


def make_mtree(size=300, dim=3, seed=0):
    data = clustered_dataset(size=size, dim=dim, seed=seed)
    tree = bulk_load(data.points, data.metric, vector_layout(dim), seed=seed)
    return data, tree


def make_vptree(size=300, dim=3, seed=0):
    data = clustered_dataset(size=size, dim=dim, seed=seed)
    tree = VPTree.build(list(data.points), data.metric, arity=3, seed=seed)
    return data, tree


# ---------------------------------------------------------------------------
# clean trees pass
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_clean_mtree_passes(seed):
    _, tree = make_mtree(seed=seed)
    report = fsck_mtree(tree)
    assert report.ok
    assert report.faults == []
    assert report.tree_kind == "mtree"
    assert report.nodes_checked == len(mtree_scrub_units(tree))
    assert report.objects_seen == len(tree)
    report.raise_if_bad()  # no-op when clean


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_clean_vptree_passes(seed):
    _, tree = make_vptree(seed=seed)
    report = fsck_vptree(tree)
    assert report.ok
    assert report.nodes_checked == len(vptree_scrub_units(tree))
    assert report.objects_seen == len(tree)


def test_fsck_after_dynamic_inserts():
    data, tree = make_mtree(size=200, seed=7)
    rng = np.random.default_rng(7)
    for oid in range(200, 260):
        tree.insert(rng.random(3), oid)
    assert fsck_mtree(tree).ok


# ---------------------------------------------------------------------------
# detection: 100% of injected corruption across a seeded corpus
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
@pytest.mark.parametrize("method,expected", MTREE_INJECTIONS)
def test_mtree_injection_detected(seed, method, expected):
    _, tree = make_mtree(seed=seed)
    record = getattr(StructuralFaultInjector(seed=seed), method)(tree)
    assert record["kind"] == expected
    report = fsck_mtree(tree)
    assert not report.ok
    assert expected in report.kinds()


@pytest.mark.parametrize("seed", CORPUS_SEEDS)
def test_vptree_injection_detected(seed):
    _, tree = make_vptree(seed=seed)
    record = StructuralFaultInjector(seed=seed).shrink_cutoff(tree)
    assert record["kind"] == "cutoff_violation"
    report = fsck_vptree(tree)
    assert not report.ok
    assert "cutoff_violation" in report.kinds()


@pytest.mark.parametrize("stored", [-0.1, float("nan")])
def test_invalid_stored_radius_reported(stored):
    # NaN passes every pruning comparison silently; fsck must still see it.
    _, tree = make_mtree()
    assert not tree.root.is_leaf
    tree.root.entries[0].radius = stored
    report = fsck_mtree(tree)
    assert not report.ok
    assert "negative_radius" in report.kinds()


# ---------------------------------------------------------------------------
# whole-tree checks: duplicate oids, aliased nodes, misplaced entries
# ---------------------------------------------------------------------------


def make_deep_mtree(size=300, seed=0):
    """An M-tree of small nodes: many leaves, a few levels."""
    data = clustered_dataset(size=size, dim=3, seed=seed)
    layout = vector_layout(3, node_size_bytes=256)
    return data, bulk_load(data.points, data.metric, layout, seed=seed)


def _leaves(tree):
    return [node for node in tree.iter_nodes() if node.is_leaf]


def _duplicate_mtree_oids(tree, n_dupes):
    """Give the first entry of ``n_dupes`` leaves another leaf's first
    oid; returns the duplicated oids."""
    leaves = _leaves(tree)
    assert len(leaves) > 2 * n_dupes
    dupes = []
    for victim, donor in zip(leaves[:n_dupes], leaves[n_dupes:]):
        first = victim.entries[0]
        oid = donor.entries[0].oid
        victim.replace(
            (LeafEntry(first.obj, oid, first.dist_to_parent),)
            + victim.entries[1:]
        )
        dupes.append(oid)
    return sorted(dupes)


def _duplicate_vptree_oids(tree, n_dupes):
    nodes = [unit.node for unit in vptree_scrub_units(tree)]
    dupes = []
    for victim, donor in zip(nodes[1 : n_dupes + 1], nodes[-n_dupes:]):
        victim.oid = donor.oid
        dupes.append(donor.oid)
    return sorted(dupes)


def _duplicate_oid_detail(report):
    (fault,) = [f for f in report.faults if f.kind == "duplicate_oid"]
    return fault.detail


@pytest.mark.parametrize("n_dupes", [1, 3])
def test_duplicate_oid_detail_lists_exactly_the_duplicates(n_dupes):
    _, mtree = make_deep_mtree()
    dupes = _duplicate_mtree_oids(mtree, n_dupes)
    assert _duplicate_oid_detail(fsck_mtree(mtree)) == (
        f"oids stored more than once: {dupes}"
    )
    _, vptree = make_vptree()
    dupes = _duplicate_vptree_oids(vptree, n_dupes)
    assert _duplicate_oid_detail(fsck_vptree(vptree)) == (
        f"oids stored more than once: {dupes}"
    )


def _alias_sibling(tree):
    """Point one routing entry at a sibling's child of the same size, so
    the object count still matches while one node has two parents."""
    for node in tree.iter_nodes():
        if node.is_leaf:
            continue
        by_size = {}
        for pos, entry in enumerate(node.entries):
            size = entry.child.subtree_size()
            if size in by_size:
                twin = node.entries[by_size[size]]
                entries = list(node.entries)
                entries[pos] = RoutingEntry(
                    twin.obj, twin.radius, twin.child, twin.dist_to_parent
                )
                node.replace(entries)
                return
            by_size[size] = pos
    raise AssertionError("no two sibling subtrees of equal size")


def _leaf_entry_in_internal_node(tree):
    node = tree.root
    first = node.entries[0]
    node.replace(
        (LeafEntry(first.obj, 10**6, first.dist_to_parent),)
        + node.entries[1:]
    )


def _routing_entry_in_leaf(tree):
    leaf = _leaves(tree)[0]
    first = leaf.entries[0]
    leaf.replace(
        (RoutingEntry(first.obj, 0.0, Node(True), first.dist_to_parent),)
        + leaf.entries[1:]
    )


FSCK_DAMAGE = pytest.mark.parametrize(
    "make,damage,kind",
    [
        (make_deep_mtree, lambda t: _duplicate_mtree_oids(t, 1), "duplicate_oid"),
        (make_vptree, lambda t: _duplicate_vptree_oids(t, 1), "duplicate_oid"),
        (make_deep_mtree, _alias_sibling, "doubly_referenced_page"),
        (make_deep_mtree, _leaf_entry_in_internal_node, "entry_type_mismatch"),
        (make_deep_mtree, _routing_entry_in_leaf, "entry_type_mismatch"),
    ],
    ids=[
        "mtree-duplicate-oid",
        "vptree-duplicate-oid",
        "mtree-aliased-child",
        "mtree-leaf-entry-in-internal-node",
        "mtree-routing-entry-in-leaf",
    ],
)


@FSCK_DAMAGE
def test_validate_rejects_every_fsck_fault(make, damage, kind):
    """``validate()`` is fsck: it names each fault fsck reports."""
    _, tree = make()
    tree.validate()
    damage(tree)
    with pytest.raises(AssertionError, match=kind):
        tree.validate()


@FSCK_DAMAGE
def test_repair_rebuilds_every_fsck_fault(make, damage, kind):
    """Repair harvests whatever a damaged tree still holds, whatever the
    fault, and rebuilds a tree fsck passes."""
    _, tree = make()
    damage(tree)
    repair = repair_mtree if isinstance(tree, MTree) else repair_vptree
    fsck = fsck_mtree if isinstance(tree, MTree) else fsck_vptree
    outcome = repair(tree, seed=1)
    assert outcome.ok, outcome.render()
    assert fsck(outcome.tree).ok
    assert outcome.n_recovered + outcome.n_lost == len(tree)
    assert len(outcome.tree) == outcome.n_recovered


@pytest.mark.parametrize(
    "damage", [_leaf_entry_in_internal_node, _routing_entry_in_leaf]
)
@pytest.mark.parametrize("method,kind", MTREE_INJECTIONS)
def test_injector_runs_on_mistyped_entries(damage, method, kind):
    """The injector's walks follow each entry's own type, so it can add
    a fault to a tree that already holds a mistyped entry."""
    _, tree = make_deep_mtree()
    damage(tree)
    record = getattr(StructuralFaultInjector(seed=0), method)(tree)
    assert record["kind"] == kind


def test_vptree_validate_margin_is_at_most_1e9_absolute():
    _, tree = make_vptree()
    tree.validate()
    node = tree.root
    child = node.children[0]
    exact = tree.metric.distance(node.obj, child.obj)
    node.cutoffs[0] = exact - 2e-9
    with pytest.raises(AssertionError, match="cutoff_violation"):
        tree.validate()


def test_report_raise_if_bad_carries_faults():
    _, tree = make_mtree()
    StructuralFaultInjector(seed=0).shrink_radius(tree)
    report = fsck_mtree(tree)
    with pytest.raises(StructuralCorruptionError) as excinfo:
        report.raise_if_bad()
    assert excinfo.value.faults == report.faults
    assert "radius_violation" in str(excinfo.value)


def test_fault_kinds_vocabulary():
    assert len(set(FAULT_KINDS)) == len(FAULT_KINDS)
    _, tree = make_mtree()
    StructuralFaultInjector(seed=0).skew_parent_distance(tree)
    for fault in fsck_mtree(tree).faults:
        assert fault.kind in FAULT_KINDS
        doc = fault.to_dict()
        assert doc["kind"] == fault.kind
        assert doc["where"]


def test_report_to_dict_and_render():
    _, tree = make_mtree()
    StructuralFaultInjector(seed=0).shrink_radius(tree)
    report = fsck_mtree(tree)
    doc = report.to_dict()
    assert doc["ok"] is False
    assert doc["tree_kind"] == "mtree"
    assert len(doc["faults"]) == len(report.faults)
    assert "radius_violation" in report.render()


def test_fsck_respects_deadline():
    _, tree = make_mtree()
    with pytest.raises(DeadlineExceededError):
        fsck_mtree(tree, deadline=Deadline.after(0.0))


def test_injector_requires_candidates():
    # A single-node tree has no routing entries to damage.
    data = clustered_dataset(size=5, dim=3, seed=0)
    tree = bulk_load(data.points, data.metric, vector_layout(3), seed=0)
    with pytest.raises(InvalidParameterError):
        StructuralFaultInjector(seed=0).shrink_radius(tree)


# ---------------------------------------------------------------------------
# page graph
# ---------------------------------------------------------------------------


def _page_graph(seed=0):
    _, tree = make_mtree(seed=seed)
    store = PageStore(page_size_bytes=4096)
    root = materialize_page_graph(tree, store)
    return store, root


def test_clean_page_graph_passes():
    store, root = _page_graph()
    report = fsck_page_graph(store, root)
    assert report.ok
    assert report.nodes_checked == len(store.page_ids())


def test_materialize_empty_tree_rejected():
    data = clustered_dataset(size=5, dim=3, seed=0)
    empty = MTree(data.metric, vector_layout(3))
    with pytest.raises(EmptyTreeError):
        materialize_page_graph(empty, PageStore(page_size_bytes=4096))


@pytest.mark.parametrize(
    "method,expected",
    [
        ("inject_orphan_page", "orphan_page"),
        ("inject_dangling_ref", "dangling_page_ref"),
        ("inject_page_alias", "doubly_referenced_page"),
    ],
)
def test_page_graph_injection_detected(method, expected):
    store, root = _page_graph()
    record = getattr(StructuralFaultInjector(seed=0), method)(store)
    assert record["kind"] == expected
    report = fsck_page_graph(store, root)
    assert not report.ok
    assert expected in report.kinds()


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------


def _reference_answers(tree, data, n_queries=20):
    rng = np.random.default_rng(99)
    answers = []
    for _ in range(n_queries):
        query = rng.random(3)
        r = tree.range_query(query, 0.25 * data.d_plus)
        k = tree.knn_query(query, 5)
        answers.append(
            (
                sorted(r.oids()),
                [(n.oid, round(n.distance, 12)) for n in k.neighbors],
            )
        )
    return answers


@pytest.mark.parametrize("method,expected", MTREE_INJECTIONS)
def test_repair_restores_clean_equivalent_tree(method, expected):
    data, tree = make_mtree(seed=2)
    getattr(StructuralFaultInjector(seed=2), method)(tree)
    assert not fsck_mtree(tree).ok
    outcome = repair_mtree(tree, seed=2)
    assert outcome.ok
    assert outcome.report.ok
    assert outcome.n_lost == (1 if method == "drop_entry" else 0)
    # The repaired tree must answer exactly like a fresh bulkload of the
    # same surviving objects.
    survivors = dict(tree.iter_objects())
    oids = sorted(survivors)
    fresh = bulk_load(
        [survivors[oid] for oid in oids],
        data.metric,
        tree.layout,
        seed=2,
        oids=oids,
    )
    assert _reference_answers(outcome.tree, data) == _reference_answers(
        fresh, data
    )
    assert "repair" in outcome.render()


def test_repair_preserves_answers_when_nothing_lost():
    data, tree = make_mtree(seed=3)
    before = _reference_answers(tree, data)
    StructuralFaultInjector(seed=3).shrink_radius(tree)
    outcome = repair_mtree(tree, seed=3)
    assert outcome.ok and outcome.n_lost == 0
    assert _reference_answers(outcome.tree, data) == before


def test_repair_commits_generation_and_clears_quarantine(tmp_path):
    data, tree = make_mtree(seed=1)
    StructuralFaultInjector(seed=1).shrink_radius(tree)
    quarantine = QuarantineSet()
    quarantine.add(tree._root)
    store = GenerationStore(tmp_path)
    outcome = repair_mtree(
        tree, seed=1, quarantine=quarantine, store=store
    )
    assert outcome.ok
    assert outcome.generation == store.generation is not None
    assert len(quarantine) == 0
    # The committed artifact is a valid checksummed envelope.
    payload = loads_artifact(store.load()["tree"], strict=True)
    assert payload["n_objects"] == len(outcome.tree)
