"""Structural fsck: verify the geometric invariants of metric indexes.

Checksums (PR 1) prove the *bytes* of an index are the bytes that were
written; they prove nothing about the *semantics*.  An M-tree page can
pass every CRC while carrying a covering radius that no longer contains
its subtree — and then range and k-NN pruning, which rest on exactly that
invariant (Section 3 of the paper: ``d(Q, O_r) > r_Q + r(O_r)`` excludes
the subtree), silently drops correct answers.  This module is the
storage-engine answer: an offline/foreground **fsck** that walks an
M-tree or vp-tree and verifies every geometric invariant, a typed
:class:`FsckReport` of the violations, a **page-graph** checker for
orphaned and doubly-referenced pages, and a :func:`repair_mtree` path
that rebuilds a damaged tree from its surviving objects via the bulk
loader and commits through a
:class:`~repro.service.GenerationStore`.

Checked invariants (M-tree):

* **containment** — every leaf object lies within the covering radius of
  *each* ancestor routing entry (the pruning-correctness invariant);
* **parent distances** — every stored ``d(O, P(O))`` matches
  recomputation (the precomputed-distance optimisation of VLDB'97);
* **entry consistency** — leaves hold only leaf entries, internal nodes
  only routing entries with non-negative radii, capacities respected,
  internal nodes carry >= 2 entries;
* **shape** — all leaves at one depth, no node reachable twice;
* **accounting** — stored object count matches the tree's, no duplicate
  oids.

The vp-tree variant checks the shell invariant (every descendant of
child ``i`` at distance in ``(mu_{i-1}, mu_i]`` from the vantage point),
sorted cutoffs, and the same shape/accounting rules.

The per-node checks are factored as *units* (:func:`mtree_scrub_units` /
:func:`check_mtree_unit`) so the online :class:`~repro.reliability.scrub.
Scrubber` can verify one node at a time under a time budget while
queries run; :func:`fsck_mtree` is simply "all units plus the global
checks, now".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..exceptions import (
    DeadlineExceededError,
    OperationCancelledError,
    StructuralCorruptionError,
)
from ..observability import state as _obs

__all__ = [
    "FAULT_KINDS",
    "StructuralFault",
    "FsckReport",
    "ScrubUnit",
    "mtree_scrub_units",
    "check_mtree_unit",
    "fsck_mtree",
    "vptree_scrub_units",
    "check_vptree_unit",
    "fsck_vptree",
    "materialize_page_graph",
    "fsck_page_graph",
    "fsck_ingest",
    "RepairOutcome",
    "repair_mtree",
    "repair_vptree",
    "fsck_selftest",
]

#: Default relative/absolute tolerance for distance comparisons — floats
#: recomputed through a different code path may differ in the last ulp.
DEFAULT_TOLERANCE = 1e-7

#: Every fault kind a structural check can emit, for exhaustive matching
#: in tests and the chaos CI job.
FAULT_KINDS = (
    "radius_violation",
    "parent_distance_skew",
    "entry_type_mismatch",
    "negative_radius",
    "capacity_overflow",
    "undersized_internal",
    "unbalanced_leaves",
    "object_count_mismatch",
    "duplicate_oid",
    "doubly_referenced_page",
    "orphan_page",
    "dangling_page_ref",
    "unreadable_page",
    "cutoff_violation",
    "cutoffs_unsorted",
    "cutoff_shape_mismatch",
    "wal_damage",
    "wal_gap",
    "snapshot_wal_discontinuity",
    "checkpoint_unreadable",
)


@dataclass(frozen=True)
class StructuralFault:
    """One violated structural invariant.

    ``kind`` is one of :data:`FAULT_KINDS`; ``where`` locates the node
    (a root-relative path like ``root/2/0``); ``detail`` is the
    human-readable evidence; ``oid`` / ``node_id`` identify the object
    and page involved when known.

    ``quarantine_node`` names the node whose subtree must be walled off
    to make queries safe again.  For violations of an *ancestor*
    constraint (a shrunken covering radius, a shrunken vp cutoff) that
    is not the witnessing node but the root of the subtree bounded by
    the corrupt value: the damage makes the *ancestor's pruning test*
    lie, so only skipping the whole bounded subtree — before the pruning
    test runs — prevents silently short answers.  It never appears in
    ``to_dict`` (it is an in-memory object reference, not evidence).
    """

    kind: str
    where: str
    detail: str
    oid: Optional[int] = None
    node_id: Optional[int] = None
    quarantine_node: Any = field(default=None, compare=False, repr=False)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (``fsck --json``)."""
        return {
            "kind": self.kind,
            "where": self.where,
            "detail": self.detail,
            "oid": self.oid,
            "node_id": self.node_id,
        }

    def __str__(self) -> str:
        return f"[{self.kind}] {self.where}: {self.detail}"


@dataclass
class FsckReport:
    """Outcome of one structural verification pass."""

    tree_kind: str  # "mtree" | "vptree" | "page-graph"
    nodes_checked: int = 0
    objects_seen: int = 0
    faults: List[StructuralFault] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.faults

    def kinds(self) -> List[str]:
        """The distinct fault kinds found (sorted)."""
        return sorted({fault.kind for fault in self.faults})

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (``fsck --json``)."""
        return {
            "tree_kind": self.tree_kind,
            "nodes_checked": self.nodes_checked,
            "objects_seen": self.objects_seen,
            "ok": self.ok,
            "fault_kinds": self.kinds(),
            "faults": [fault.to_dict() for fault in self.faults],
        }

    def render(self) -> str:
        """Human-readable report, one line per fault."""
        head = (
            f"fsck {self.tree_kind}: {self.nodes_checked} node(s), "
            f"{self.objects_seen} object(s): "
            + ("clean" if self.ok else f"{len(self.faults)} fault(s)")
        )
        return "\n".join([head] + [f"  {fault}" for fault in self.faults])

    def raise_if_bad(self) -> None:
        """Raise :class:`StructuralCorruptionError` unless the walk was
        clean."""
        if not self.ok:
            raise StructuralCorruptionError(
                f"{self.tree_kind} failed fsck: {len(self.faults)} "
                f"structural fault(s), kinds {self.kinds()}",
                faults=self.faults,
            )


def _mirror_faults(faults: Sequence[StructuralFault]) -> None:
    reg = _obs.registry
    if reg is not None:
        for fault in faults:
            reg.inc("reliability.structural_faults", kind=fault.kind)


# ---------------------------------------------------------------------------
# M-tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScrubUnit:
    """One node plus the ancestor context needed to verify it alone.

    ``ancestors`` holds ``(routing_obj, covering_radius)`` for every
    routing entry on the root-to-node path (nearest last);
    ``constraints`` is the vp-tree analogue: ``(vantage_obj, lower,
    upper)`` shell bounds.  ``path`` holds, aligned index-for-index with
    ``ancestors``/``constraints``, the subtree-root *node* each
    constraint bounds — the quarantine target when that constraint turns
    out to be corrupt.  Snapshot once, verify incrementally — the unit
    is self-contained, so the scrubber never re-walks the path.
    """

    node: Any
    where: str
    depth: int
    ancestors: Tuple[Tuple[Any, float], ...] = ()
    constraints: Tuple[Tuple[Any, float, float], ...] = ()
    path: Tuple[Any, ...] = ()
    is_root: bool = False


def mtree_scrub_units(tree: Any) -> List[ScrubUnit]:
    """Every node of ``tree`` as a self-contained verification unit.

    Also performs the reference-graph sweep: a node reachable through
    two routing entries is reported by :func:`fsck_mtree` as a
    ``doubly_referenced_page`` (the walk does not descend into it twice).
    """
    units: List[ScrubUnit] = []
    if tree.root is None:
        return units
    seen: set = set()

    def walk(node, where, depth, ancestors, path):
        units.append(
            ScrubUnit(
                node=node,
                where=where,
                depth=depth,
                ancestors=tuple(ancestors),
                path=tuple(path),
                is_root=node is tree.root,
            )
        )
        seen.add(id(node))
        if node.is_leaf:
            return
        for pos, entry in enumerate(node.entries):
            child = getattr(entry, "child", None)
            if child is None or id(child) in seen:
                continue  # fsck_mtree reports the aliasing fault
            walk(
                child,
                f"{where}/{pos}",
                depth + 1,
                ancestors + [(entry.obj, entry.radius)],
                path + [child],
            )

    walk(tree.root, "root", 1, [], [])
    return units


def check_mtree_unit(
    tree: Any, unit: ScrubUnit, tolerance: float = DEFAULT_TOLERANCE
) -> List[StructuralFault]:
    """Verify one M-tree node against its snapshot context.

    Containment is checked for leaf objects (the query-correctness
    invariant); parent distances and entry consistency for every node.
    """
    from ..mtree.entries import LeafEntry, RoutingEntry

    node = unit.node
    metric = tree.metric
    faults: List[StructuralFault] = []
    capacity = (
        tree.layout.leaf_capacity if node.is_leaf else tree.layout.internal_capacity
    )
    if len(node.entries) > capacity:
        faults.append(
            StructuralFault(
                "capacity_overflow",
                unit.where,
                f"{len(node.entries)} entries exceed capacity {capacity}",
                node_id=id(node),
            )
        )
    if not node.is_leaf and len(node.entries) < 2 and not unit.is_root:
        faults.append(
            StructuralFault(
                "undersized_internal",
                unit.where,
                f"internal node holds {len(node.entries)} entry(ies); "
                "the structural minimum is 2",
                node_id=id(node),
            )
        )
    expected_type = LeafEntry if node.is_leaf else RoutingEntry
    parent_obj = unit.ancestors[-1][0] if unit.ancestors else None
    for pos, entry in enumerate(node.entries):
        if not isinstance(entry, expected_type):
            faults.append(
                StructuralFault(
                    "entry_type_mismatch",
                    f"{unit.where}[{pos}]",
                    f"{type(entry).__name__} inside a "
                    f"{'leaf' if node.is_leaf else 'internal'} node",
                    node_id=id(node),
                )
            )
            continue
        radius = getattr(entry, "radius", None)
        if radius is not None and not (radius >= 0):
            # NaN fails every pruning comparison, so it is reported with
            # the negative radii: no other check can see it.
            faults.append(
                StructuralFault(
                    "negative_radius",
                    f"{unit.where}[{pos}]",
                    f"covering radius {radius} is not >= 0",
                    node_id=id(node),
                )
            )
        if parent_obj is not None:
            expected = metric.distance(entry.obj, parent_obj)
            if abs(entry.dist_to_parent - expected) > tolerance * (
                1 + expected
            ):
                faults.append(
                    StructuralFault(
                        "parent_distance_skew",
                        f"{unit.where}[{pos}]",
                        f"stored d(O, P(O)) = {entry.dist_to_parent:.6g} "
                        f"but recomputation gives {expected:.6g}",
                        oid=getattr(entry, "oid", None),
                        node_id=id(node),
                    )
                )
        if node.is_leaf:
            for level, (robj, rradius) in enumerate(unit.ancestors):
                dist = metric.distance(entry.obj, robj)
                if dist > rradius * (1 + tolerance) + tolerance:
                    # The corrupt value is the *ancestor's* covering
                    # radius: quarantining must wall off the whole
                    # subtree it bounds, or the ancestor's pruning test
                    # keeps lying to queries that never reach this leaf.
                    faults.append(
                        StructuralFault(
                            "radius_violation",
                            f"{unit.where}[{pos}]",
                            f"object {entry.oid} at distance {dist:.6g} "
                            f"escapes covering radius {rradius:.6g}",
                            oid=entry.oid,
                            node_id=id(node),
                            quarantine_node=(
                                unit.path[level]
                                if level < len(unit.path)
                                else None
                            ),
                        )
                    )
                    break  # one escape condemns the entry; move on
    return faults


def _global_faults(
    tree: Any,
    units: Sequence[ScrubUnit],
    children: Callable[[Any], Iterable[Any]],
    oids: Callable[[Any], Iterable[int]],
) -> Tuple[List[StructuralFault], int]:
    """Whole-tree checks shared by every tree kind: each node reachable
    through exactly one parent, each oid stored once, and the stored
    object count equal to the tree's.  ``children(node)`` and
    ``oids(node)`` give one node's child nodes and stored oids; returns
    the faults and the number of objects seen."""
    faults: List[StructuralFault] = []
    ref_counts: Counter = Counter(
        id(child) for unit in units for child in children(unit.node)
    )
    for unit in units:
        if ref_counts[id(unit.node)] > 1:
            faults.append(
                StructuralFault(
                    "doubly_referenced_page",
                    unit.where,
                    f"node referenced by {ref_counts[id(unit.node)]} parents",
                    node_id=id(unit.node),
                )
            )
    oid_counts: Counter = Counter(
        oid for unit in units for oid in oids(unit.node)
    )
    dupes = sorted(oid for oid, count in oid_counts.items() if count > 1)
    if dupes:
        faults.append(
            StructuralFault(
                "duplicate_oid",
                "root",
                f"oids stored more than once: {dupes[:10]}",
            )
        )
    n_objects = sum(oid_counts.values())
    if n_objects != len(tree):
        faults.append(
            StructuralFault(
                "object_count_mismatch",
                "root",
                f"{n_objects} objects stored but the tree claims "
                f"{len(tree)} (dropped or duplicated entries)",
            )
        )
    return faults, n_objects


def _mtree_global_faults(
    tree: Any, units: Sequence[ScrubUnit]
) -> Tuple[List[StructuralFault], int]:
    """Balance plus :func:`_global_faults` for an M-tree walk."""
    faults: List[StructuralFault] = []
    leaf_depths = {unit.depth for unit in units if unit.node.is_leaf}
    if len(leaf_depths) > 1:
        faults.append(
            StructuralFault(
                "unbalanced_leaves",
                "root",
                f"leaves at depths {sorted(leaf_depths)}; "
                "an M-tree is balanced by construction",
            )
        )
    shared, n_objects = _global_faults(
        tree,
        units,
        lambda node: [
            e.child
            for e in node.entries
            if getattr(e, "child", None) is not None
        ],
        # A routing entry misplaced in a leaf stores no object; the unit
        # check reports it as an entry_type_mismatch.
        lambda node: (
            [e.oid for e in node.entries if hasattr(e, "oid")]
            if node.is_leaf
            else []
        ),
    )
    return faults + shared, n_objects


def fsck_mtree(
    tree: Any,
    tolerance: float = DEFAULT_TOLERANCE,
    deadline: Optional[Any] = None,
) -> FsckReport:
    """Full structural verification of an M-tree.

    ``deadline`` (a :class:`~repro.context.Deadline` / ``Context``) is
    polled once per node, so a foreground fsck can be time-bounded; use
    the :class:`~repro.reliability.scrub.Scrubber` for the resumable
    background variant.
    """
    return _fsck_tree("mtree", tree, tolerance, deadline)


# ---------------------------------------------------------------------------
# vp-tree
# ---------------------------------------------------------------------------


def vptree_scrub_units(tree: Any) -> List[ScrubUnit]:
    """Every vp-tree node as a self-contained verification unit."""
    units: List[ScrubUnit] = []
    if tree.root is None:
        return units
    seen: set = set()

    def walk(node, where, depth, constraints, path):
        units.append(
            ScrubUnit(
                node=node,
                where=where,
                depth=depth,
                constraints=tuple(constraints),
                path=tuple(path),
                is_root=node is tree.root,
            )
        )
        seen.add(id(node))
        previous_cut = 0.0
        for pos, (cut, child) in enumerate(zip(node.cutoffs, node.children)):
            if child is not None and id(child) not in seen:
                walk(
                    child,
                    f"{where}/{pos}",
                    depth + 1,
                    constraints + [(node.obj, previous_cut, cut)],
                    path + [child],
                )
            previous_cut = cut

    walk(tree.root, "root", 1, [], [])
    return units


def check_vptree_unit(
    tree: Any, unit: ScrubUnit, tolerance: float = DEFAULT_TOLERANCE
) -> List[StructuralFault]:
    """Verify one vp-tree node: shell membership + cutoff shape."""
    node = unit.node
    metric = tree.metric
    faults: List[StructuralFault] = []
    if len(node.cutoffs) != len(node.children):
        faults.append(
            StructuralFault(
                "cutoff_shape_mismatch",
                unit.where,
                f"{len(node.cutoffs)} cutoffs for "
                f"{len(node.children)} children",
                node_id=id(node),
            )
        )
    if node.cutoffs != sorted(node.cutoffs):
        faults.append(
            StructuralFault(
                "cutoffs_unsorted",
                unit.where,
                f"cutoffs {node.cutoffs} are not non-decreasing",
                node_id=id(node),
            )
        )
    for level, (vantage_obj, lower, upper) in enumerate(unit.constraints):
        dist = metric.distance(vantage_obj, node.obj)
        if not (lower - tolerance <= dist <= upper + tolerance * (1 + upper)):
            # As for M-tree radii: the corrupt cutoff lives in the
            # ancestor, so the subtree it bounds is the quarantine unit.
            faults.append(
                StructuralFault(
                    "cutoff_violation",
                    unit.where,
                    f"object {node.oid} at distance {dist:.6g} outside "
                    f"its shell ({lower:.6g}, {upper:.6g}]",
                    oid=node.oid,
                    node_id=id(node),
                    quarantine_node=(
                        unit.path[level]
                        if level < len(unit.path)
                        else None
                    ),
                )
            )
            break
    return faults


def _vptree_global_faults(
    tree: Any, units: Sequence[ScrubUnit]
) -> Tuple[List[StructuralFault], int]:
    """:func:`_global_faults` for a vp-tree walk (one object per node)."""
    return _global_faults(
        tree,
        units,
        lambda node: [child for child in node.children if child is not None],
        lambda node: [node.oid],
    )


def fsck_vptree(
    tree: Any,
    tolerance: float = DEFAULT_TOLERANCE,
    deadline: Optional[Any] = None,
) -> FsckReport:
    """Full structural verification of a vp-tree."""
    return _fsck_tree("vptree", tree, tolerance, deadline)


# Per tree kind: the walk into units, the per-unit check and the
# whole-tree check.  fsck runs all three at once; the
# :class:`~repro.reliability.scrub.Scrubber` runs them a unit at a time.
_TREE_CHECKS: Dict[str, Tuple[Callable, Callable, Callable]] = {
    "mtree": (mtree_scrub_units, check_mtree_unit, _mtree_global_faults),
    "vptree": (vptree_scrub_units, check_vptree_unit, _vptree_global_faults),
}


def _fsck_tree(
    kind: str, tree: Any, tolerance: float, deadline: Optional[Any]
) -> FsckReport:
    walk, check_unit, global_faults = _TREE_CHECKS[kind]
    report = FsckReport(tree_kind=kind)
    units = walk(tree)
    for unit in units:
        if deadline is not None:
            deadline.check(f"{kind} fsck")
        report.faults.extend(check_unit(tree, unit, tolerance))
        report.nodes_checked += 1
    faults, report.objects_seen = global_faults(tree, units)
    report.faults.extend(faults)
    _mirror_faults(report.faults)
    reg = _obs.registry
    if reg is not None:
        reg.inc("reliability.fsck_runs", kind=kind)
    return report


# ---------------------------------------------------------------------------
# Page graph
# ---------------------------------------------------------------------------


def materialize_page_graph(tree: Any, store: Any) -> int:
    """Write ``tree``'s node graph into ``store`` as one page per node.

    Each payload is ``{"is_leaf", "n_entries", "children": [page ids]}``
    — the reference structure a paged deployment persists.  Returns the
    root's page id.  Chaos tests corrupt the resulting pages (drop a
    child reference, alias two, allocate an unreachable page) and assert
    :func:`fsck_page_graph` reports every one.
    """
    if tree.root is None:
        from ..exceptions import EmptyTreeError

        raise EmptyTreeError("cannot materialise an empty tree")
    page_of: Dict[int, int] = {}
    order: List[Any] = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if id(node) in page_of:
            continue
        page_of[id(node)] = store.allocate(None)  # placeholder
        order.append(node)
        if not node.is_leaf:
            stack.extend(entry.child for entry in node.entries)
    for node in order:
        children = (
            []
            if node.is_leaf
            else [page_of[id(entry.child)] for entry in node.entries]
        )
        store.write(
            page_of[id(node)],
            {
                "is_leaf": node.is_leaf,
                "n_entries": len(node.entries),
                "children": children,
            },
        )
    return page_of[id(tree.root)]


def fsck_page_graph(store: Any, root_page: int) -> FsckReport:
    """Verify the page reference graph rooted at ``root_page``.

    Faults: ``dangling_page_ref`` (a child id that cannot be read),
    ``doubly_referenced_page`` (a page reachable through two parents),
    ``orphan_page`` (an allocated page no path from the root reaches),
    ``unreadable_page`` (a payload that is not a page dict).
    """
    report = FsckReport(tree_kind="page-graph")
    ref_counts: Dict[int, int] = {root_page: 1}
    reachable: set = set()
    stack = [root_page]
    while stack:
        page_id = stack.pop()
        if page_id in reachable:
            continue
        reachable.add(page_id)
        try:
            payload = store.read(page_id)
        except (DeadlineExceededError, OperationCancelledError):
            # fsck under a budget stops cleanly rather than recording
            # cancellation as structural damage.
            raise
        except Exception as exc:  # noqa: BLE001 — any failure is a fault
            report.faults.append(
                StructuralFault(
                    "dangling_page_ref",
                    f"page {page_id}",
                    f"referenced page cannot be read: "
                    f"{type(exc).__name__}: {exc}",
                    node_id=page_id,
                )
            )
            continue
        report.nodes_checked += 1
        if not isinstance(payload, dict) or "children" not in payload:
            report.faults.append(
                StructuralFault(
                    "unreadable_page",
                    f"page {page_id}",
                    f"payload {type(payload).__name__} is not a page "
                    "record",
                    node_id=page_id,
                )
            )
            continue
        for child in payload["children"]:
            ref_counts[child] = ref_counts.get(child, 0) + 1
            stack.append(child)
    for page_id, count in sorted(ref_counts.items()):
        if count > 1:
            report.faults.append(
                StructuralFault(
                    "doubly_referenced_page",
                    f"page {page_id}",
                    f"page referenced by {count} parents",
                    node_id=page_id,
                )
            )
    all_pages = set(store.page_ids())
    for page_id in sorted(all_pages - reachable):
        report.faults.append(
            StructuralFault(
                "orphan_page",
                f"page {page_id}",
                "allocated page unreachable from the root",
                node_id=page_id,
            )
        )
    _mirror_faults(report.faults)
    reg = _obs.registry
    if reg is not None:
        reg.inc("reliability.fsck_runs", kind="page_graph")
    return report


# ---------------------------------------------------------------------------
# Repair
# ---------------------------------------------------------------------------


@dataclass
class RepairOutcome:
    """What :func:`repair_mtree` recovered.

    ``tree`` is the rebuilt index; ``report`` its post-repair fsck (clean
    unless the damage reached the object payloads themselves);
    ``generation`` the :class:`~repro.service.GenerationStore` generation
    the repair committed, when a store was given.
    """

    tree: Any
    n_recovered: int
    n_lost: int
    report: FsckReport
    generation: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.report.ok

    def render(self) -> str:
        lines = [
            f"repair: {self.n_recovered} object(s) recovered, "
            f"{self.n_lost} lost"
        ]
        if self.generation is not None:
            lines.append(f"committed as generation {self.generation}")
        lines.append(self.report.render())
        return "\n".join(lines)


def _harvest(pairs: Iterable[Tuple[int, Any]]) -> Tuple[List[int], List[Any]]:
    """The surviving ``(oid, object)`` pairs, de-duplicated by oid and
    sorted by it."""
    recovered: Dict[int, Any] = {}
    for oid, obj in pairs:
        recovered.setdefault(oid, obj)
    oids = sorted(recovered)
    return oids, [recovered[oid] for oid in oids]


def _commit_repair(
    tree: Any,
    rebuilt: Any,
    n_recovered: int,
    fsck: Callable[[Any], FsckReport],
    to_dict: Callable[[Any, Any], Dict[str, Any]],
    quarantine: Optional[Any],
    store: Optional[Any],
    artifact_name: str,
    encode: Optional[Any],
) -> RepairOutcome:
    """The tail both repairs share: fsck ``rebuilt``; if clean, commit it
    to ``store`` (serialised by ``to_dict``) and clear ``quarantine``."""
    report = fsck(rebuilt)
    generation = None
    if store is not None and report.ok:
        from ..persistence import _default_encode
        from .integrity import dumps_artifact

        text = dumps_artifact(to_dict(rebuilt, encode or _default_encode))
        store.save({artifact_name: text})
        generation = store.generation
    if quarantine is not None and report.ok:
        quarantine.clear()
    reg = _obs.registry
    if reg is not None:
        reg.inc("reliability.repairs", ok=report.ok)
    return RepairOutcome(
        tree=rebuilt,
        n_recovered=n_recovered,
        n_lost=max(0, len(tree) - n_recovered),
        report=report,
        generation=generation,
    )


def repair_mtree(
    tree: Any,
    seed: int = 0,
    quarantine: Optional[Any] = None,
    store: Optional[Any] = None,
    artifact_name: str = "tree",
    encode: Optional[Any] = None,
) -> RepairOutcome:
    """Rebuild a structurally damaged M-tree from its surviving objects.

    Structural faults (shrunk radii, skewed parent distances, dropped
    entries) damage the *index*, not the object payloads, so every leaf
    object still reachable — including those inside quarantined pages —
    is harvested, de-duplicated by oid, and handed to the bulk loader,
    which re-derives every radius and parent distance from scratch.  The
    whole tree is rebuilt rather than splicing subtrees: bulk-loaded
    subtrees need not match the height of the hole they would fill, and
    a full rebuild restores balance by construction.

    With ``store`` (a :class:`~repro.service.GenerationStore`) the
    repaired tree is serialised through
    :mod:`repro.persistence` and committed as a new generation, so a
    crash mid-repair leaves the previous generation intact.  A non-empty
    ``quarantine`` is cleared once the rebuilt tree passes fsck.
    """
    from ..mtree.bulkload import bulk_load
    from ..persistence import mtree_to_dict

    oids, objects = _harvest(tree.iter_objects())
    rebuilt = bulk_load(
        objects, tree.metric, tree.layout, seed=seed, oids=oids
    )
    return _commit_repair(
        tree, rebuilt, len(oids), fsck_mtree, mtree_to_dict,
        quarantine, store, artifact_name, encode,
    )


def repair_vptree(
    tree: Any,
    seed: int = 0,
    quarantine: Optional[Any] = None,
    store: Optional[Any] = None,
    artifact_name: str = "tree",
    encode: Optional[Any] = None,
) -> RepairOutcome:
    """Rebuild a structurally damaged vp-tree from its surviving objects.

    The vp-tree sibling of :func:`repair_mtree`, and the repair rung of
    the cluster lifecycle ladder
    (:class:`~repro.cluster.lifecycle.ClusterLifecycle`): structural
    faults (shrunken cutoffs, unsorted cutoffs, aliased nodes) damage the
    index, not the object payloads, so every node's object is harvested,
    de-duplicated by oid, and rebuilt from scratch — cutoffs and shells
    re-derived by construction.  With ``store`` the repaired tree is
    committed as a new :class:`~repro.service.GenerationStore`
    generation; a non-empty ``quarantine`` is cleared once the rebuilt
    tree passes fsck.
    """
    from ..persistence import vptree_to_dict
    from ..vptree.tree import VPTree

    oids, objects = _harvest(
        (unit.node.oid, unit.node.obj) for unit in vptree_scrub_units(tree)
    )
    rebuilt = VPTree.build(
        objects,
        tree.metric,
        arity=tree.arity,
        vantage_selection=tree.vantage_selection,
        seed=seed,
    )
    # VPTree.build assigns positional oids; remap to the recovered ones.
    if oids != list(range(len(oids))):
        for unit in vptree_scrub_units(rebuilt):
            unit.node.oid = oids[unit.node.oid]
    return _commit_repair(
        tree, rebuilt, len(oids), fsck_vptree, vptree_to_dict,
        quarantine, store, artifact_name, encode,
    )


# The self-test's inject -> detect table: ``(index kind, injector
# method, the fault kind fsck must then report)``.
_SELFTEST_CASES = (
    ("mtree", "shrink_radius", "radius_violation"),
    ("mtree", "skew_parent_distance", "parent_distance_skew"),
    ("mtree", "drop_entry", "object_count_mismatch"),
    ("vptree", "shrink_cutoff", "cutoff_violation"),
    ("pages", "inject_orphan_page", "orphan_page"),
    ("pages", "inject_dangling_ref", "dangling_page_ref"),
    ("pages", "inject_page_alias", "doubly_referenced_page"),
)


def fsck_selftest(size: int = 300, seed: int = 0) -> Dict[str, Any]:
    """Inject each of seven structural faults into its own seeded index
    (``size`` clustered 3-d points) and record whether the index was
    clean before, whether fsck detected the fault and, for the two tree
    kinds, whether repair came back clean.

    ``python -m repro fsck`` prints the result and the doctor's
    "structural fsck" check requires it ``healthy``.
    """
    from ..datasets import clustered_dataset
    from ..mtree import bulk_load, vector_layout
    from ..storage import PageStore
    from ..vptree import VPTree
    from .faults import StructuralFaultInjector

    data = clustered_dataset(size=size, dim=3, seed=seed)

    def mtree() -> Any:
        return bulk_load(
            data.points, data.metric, vector_layout(3), seed=seed
        )

    def vptree() -> Any:
        return VPTree.build(
            list(data.points), data.metric, arity=3, seed=seed
        )

    def page_graph() -> Any:
        store = PageStore(page_size_bytes=4096)
        return store, materialize_page_graph(mtree(), store)

    # kind -> (build, injection target, fsck, repair or None)
    kinds: Dict[str, Tuple[Callable, ...]] = {
        "mtree": (mtree, lambda tree: tree, fsck_mtree, repair_mtree),
        "vptree": (vptree, lambda tree: tree, fsck_vptree, repair_vptree),
        "pages": (
            page_graph,
            lambda graph: graph[0],
            lambda graph: fsck_page_graph(*graph),
            None,
        ),
    }
    cases = []
    for kind, method, expected in _SELFTEST_CASES:
        build, target, fsck, repair = kinds[kind]
        index = build()
        clean_before = fsck(index).ok
        getattr(StructuralFaultInjector(seed=seed), method)(target(index))
        report = fsck(index)
        detected = expected in report.kinds()
        repaired = None if repair is None else repair(index, seed=seed).ok
        cases.append(
            {
                "name": f"{kind}.{method}",
                "expected": expected,
                "clean_before": clean_before,
                "detected": detected,
                "detected_kinds": report.kinds(),
                "repaired": repaired,
                "ok": clean_before and detected and repaired is not False,
            }
        )
    return {
        "mode": "selftest",
        "seed": seed,
        "size": size,
        "healthy": all(case["ok"] for case in cases),
        "cases": cases,
    }


def fsck_ingest(directory: Any) -> FsckReport:
    """Verify snapshot ↔ WAL continuity of an ingest directory.

    Read-only.  ``directory`` is an :class:`~repro.ingest.IngestService`
    root (holding ``snapshots/`` and ``wal/``).  Checks, in order:

    * the committed snapshot bundle loads and matches its manifest
      digests, and the checkpoint metadata is the expected format
      (``checkpoint_unreadable`` otherwise);
    * every WAL segment's framing is intact up to at most one benign
      torn tail (``wal_damage`` for anything else — bit flips, bad
      magic, mid-log truncation);
    * the sequence numbers the snapshot does *not* cover form one
      contiguous run starting right after the checkpointed high-water
      mark: an interior hole is a ``wal_gap``, a missing head (a
      segment pruned or lost below the first replayable record) is a
      ``snapshot_wal_discontinuity``.  Either way acknowledged inserts
      would vanish on replay, which is exactly what an fsck must say
      out loud before anyone trusts a recovery.

    ``nodes_checked`` counts WAL segments, ``objects_seen`` valid
    records.
    """
    import json
    from pathlib import Path

    from ..exceptions import CorruptedDataError, FormatVersionError
    from ..ingest.wal import read_wal
    from ..service.recovery import GenerationStore

    directory = Path(directory)
    report = FsckReport(tree_kind="ingest")
    checkpoint_seq = 0
    store = GenerationStore(directory / "snapshots")
    try:
        if store.generation is not None:
            bundle = store.load()
            ckpt = json.loads(bundle["checkpoint"])
            if ckpt.get("format") != "metricost-ingest-checkpoint-v1":
                raise FormatVersionError(
                    f"unexpected checkpoint format {ckpt.get('format')!r}"
                )
            checkpoint_seq = int(ckpt["seq"])
    except (
        CorruptedDataError,
        FormatVersionError,
        KeyError,
        ValueError,
    ) as exc:
        report.faults.append(
            StructuralFault(
                kind="checkpoint_unreadable",
                where="snapshots",
                detail=str(exc),
            )
        )
    wal = read_wal(directory / "wal")
    report.nodes_checked = len(wal.segments)
    report.objects_seen = len(wal.records)
    for damage in wal.damage:
        report.faults.append(
            StructuralFault(
                kind="wal_damage",
                where=damage.segment,
                detail=f"{damage.reason} at byte {damage.offset}",
            )
        )
    for lo, hi in wal.gaps:
        if hi > checkpoint_seq:
            report.faults.append(
                StructuralFault(
                    kind="wal_gap",
                    where="wal",
                    detail=(
                        f"records {max(lo, checkpoint_seq + 1)}..{hi} "
                        f"missing past checkpoint seq {checkpoint_seq}"
                    ),
                )
            )
    replayable = [r.seq for r in wal.records if r.seq > checkpoint_seq]
    if replayable and min(replayable) > checkpoint_seq + 1:
        report.faults.append(
            StructuralFault(
                kind="snapshot_wal_discontinuity",
                where="wal",
                detail=(
                    f"first replayable record is seq {min(replayable)} "
                    f"but the snapshot covers only up to "
                    f"{checkpoint_seq}: acknowledged records "
                    f"{checkpoint_seq + 1}..{min(replayable) - 1} are gone"
                ),
            )
        )
    reg = _obs.registry
    if reg is not None:
        reg.inc("reliability.fsck_runs", kind="ingest", ok=report.ok)
    return report
