"""Bulk loading the M-tree (after Ciaccia & Patella, ADC'98).

The paper's experimental trees are built with the BulkLoading algorithm
(node size 4 KB, minimum utilisation 30%).  The algorithm here follows the
same recipe — recursive seed-based clustering — organised bottom-up so the
result is balanced by construction:

1. *Leaf clustering*: objects are recursively partitioned by assigning each
   to its nearest seed (seeds are random sample objects), until every
   cluster fits in a leaf.  Undersized clusters (< 30% of capacity) are
   dissolved and their members reassigned to the remaining seeds, mirroring
   the ADC'98 reassignment step.
2. *Leaf construction*: each cluster becomes a leaf whose routing object is
   the cluster medoid (minimising the covering radius) and whose radius is
   the maximum distance to the medoid.
3. *Upper levels*: the routing objects of level ``l`` are clustered the
   same way into nodes of level ``l - 1``; an internal routing entry's
   radius is ``max(d(parent, child) + r(child))`` over its children — the
   triangle-inequality bound that preserves the covering invariant.
4. Repeat until a single root remains.

Distance evaluations during the build use the metric's vectorised
``one_to_many``/``pairwise`` paths, so bulk loading 10^5 vectors stays in
numpy.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import EmptyDatasetError, InvalidParameterError
from ..metrics import Metric
from .entries import LeafEntry, RoutingEntry
from .layout import NodeLayout
from .node import Node
from .tree import MTree

__all__ = ["bulk_load"]

#: Cap on the number of seeds per recursion step: keeps assignment cost
#: O(n * MAX_SEEDS) per level instead of O(n^2 / capacity).
MAX_SEEDS = 48


def _partition_indices(
    block: Sequence[Any],
    indices: np.ndarray,
    capacity: int,
    min_entries: int,
    metric: Metric,
    rng: np.random.Generator,
) -> List[np.ndarray]:
    """Recursively cluster ``indices`` into groups of size <= capacity.

    ``block`` is the objects encoded once by ``metric.encode``; each step
    picks its members out of it with ``metric.take``."""
    if indices.size <= capacity:
        return [indices]
    n_groups = int(np.ceil(indices.size / capacity))
    n_seeds = int(min(MAX_SEEDS, max(2, n_groups)))
    seed_positions = rng.choice(indices.size, size=n_seeds, replace=False)

    # Distance from every object to every seed; vectorised per seed.
    members = metric.take(block, indices)
    dist_to_seeds = np.stack([
        np.asarray(metric.one_to_many(block[i], members))
        for i in indices[seed_positions]
    ])  # (n_seeds, n_members)
    assignment = np.argmin(dist_to_seeds, axis=0)

    # ADC'98 reassignment: dissolve undersized clusters, reassign members
    # to the surviving seeds.
    counts = np.bincount(assignment, minlength=n_seeds)
    too_small = counts < min(min_entries, indices.size // n_seeds + 1)
    if too_small.any() and not too_small.all():
        dist_to_seeds[too_small, :] = np.inf
        assignment = np.argmin(dist_to_seeds, axis=0)

    groups: List[np.ndarray] = []
    for seed_idx in range(n_seeds):
        mask = assignment == seed_idx
        if not mask.any():
            continue
        group = indices[mask]
        if group.size == indices.size:
            # Degenerate metric (all members equidistant): split by halving
            # to guarantee progress.
            half = group.size // 2
            groups.extend([group[:half], group[half:]])
            continue
        groups.append(group)

    result: List[np.ndarray] = []
    for group in groups:
        result.extend(
            _partition_indices(block, group, capacity, min_entries, metric, rng)
        )
    return result


def _merge_undersized(
    groups: List[np.ndarray], capacity: int, min_entries: int
) -> List[np.ndarray]:
    """Merge clusters below the fill threshold into their smallest peers.

    Merging only happens when the combined size still fits in one node, so
    capacity is never violated; an undersized group with no viable partner
    is kept as-is (rare, and the statistics reflect the actual tree either
    way).  Groups of fewer than 2 entries are always merge candidates —
    single-entry nodes are never acceptable in an M-tree.
    """
    threshold = max(min_entries, 2)
    groups = sorted(groups, key=lambda g: g.size)
    merged: List[np.ndarray] = []
    leftovers: List[np.ndarray] = []
    for group in groups:
        if group.size >= threshold:
            merged.append(group)
        else:
            leftovers.append(group)
    for group in leftovers:
        target = None
        for i, candidate in enumerate(merged):
            if candidate.size + group.size <= capacity:
                target = i
                break
        if target is not None:
            merged[target] = np.concatenate([merged[target], group])
        elif group.size >= 2 or not merged:
            merged.append(group)
        else:
            # No room anywhere for a singleton: steal one entry from the
            # largest group so this node has the mandatory two entries.
            donor = max(range(len(merged)), key=lambda i: merged[i].size)
            merged.append(np.concatenate([group, merged[donor][-1:]]))
            merged[donor] = merged[donor][:-1]
    return merged


def _medoid(members: Sequence[Any], metric: Metric) -> Tuple[int, np.ndarray]:
    """Index of the member minimising the maximum distance, plus its row."""
    matrix = np.asarray(metric.pairwise(list(members), list(members)))
    eccentricity = matrix.max(axis=1)
    best = int(np.argmin(eccentricity))
    return best, matrix[best]


def bulk_load(
    objects: Sequence[Any],
    metric: Metric,
    layout: NodeLayout,
    seed: int = 0,
    oids: Optional[Sequence[int]] = None,
) -> MTree:
    """Build an M-tree over ``objects`` with the bulk-loading algorithm.

    ``oids`` defaults to ``range(len(objects))`` — positions in the input
    sequence.  The returned tree supports further dynamic inserts.
    """
    n = len(objects)
    if n == 0:
        raise EmptyDatasetError("cannot bulk-load an empty object set")
    if oids is None:
        oids = range(n)
    elif len(oids) != n:
        raise InvalidParameterError(
            f"oids length {len(oids)} != objects length {n}"
        )
    rng = np.random.default_rng(seed)

    # ---- leaves ------------------------------------------------------
    all_indices = np.arange(n)
    groups = _partition_indices(
        metric.encode(objects),
        all_indices,
        layout.leaf_capacity,
        layout.leaf_min_entries,
        metric,
        rng,
    )
    groups = _merge_undersized(
        groups, layout.leaf_capacity, layout.leaf_min_entries
    )

    # Each leaf yields (routing object, covering radius, node).
    level: List[Tuple[Any, float, Node]] = []
    oid_list = list(oids)
    for group in groups:
        members = [objects[i] for i in group]
        medoid_pos, dists = _medoid(members, metric)
        routing_obj = members[medoid_pos]
        node = Node(is_leaf=True)
        node.replace([
            LeafEntry(
                objects[obj_index],
                oid_list[obj_index],
                dist_to_parent=float(dists[pos]),
            )
            for pos, obj_index in enumerate(group)
        ])
        level.append((routing_obj, float(dists.max()), node))

    # ---- upper levels --------------------------------------------------
    while len(level) > 1:
        routing_objs = [item[0] for item in level]
        indices = np.arange(len(level))
        groups = _partition_indices(
            metric.encode(routing_objs),
            indices,
            layout.internal_capacity,
            layout.internal_min_entries,
            metric,
            rng,
        )
        groups = _merge_undersized(
            groups, layout.internal_capacity, layout.internal_min_entries
        )
        next_level: List[Tuple[Any, float, Node]] = []
        for group in groups:
            members = [routing_objs[i] for i in group]
            medoid_pos, dists = _medoid(members, metric)
            parent_obj = members[medoid_pos]
            entries = []
            radius = 0.0
            for pos, child_pos in enumerate(group):
                child_obj, child_radius, child_node = level[child_pos]
                dist = float(dists[pos])
                entries.append(
                    RoutingEntry(
                        child_obj, child_radius, child_node, dist_to_parent=dist
                    )
                )
                radius = max(radius, dist + child_radius)
            node = Node(is_leaf=False)
            node.replace(entries)
            next_level.append((parent_obj, radius, node))
        level = next_level

    tree = MTree(metric, layout, seed=seed)
    tree._adopt_root(level[0][2], n)
    return tree
