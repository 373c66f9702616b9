"""Shard rebalance: priced by the cost model, committed by one store save.

Rebalancing moves objects between shards when the observed pivot-profile
drift (or accumulated damage: folded shards serving at linear cost)
makes the current partition more expensive than a fresh one.  The
decision is the paper's cost model applied to *itself*: both the current
membership and a candidate re-partition are priced as the expected
per-query distance count over a seeded probe workload —
``n_shards`` pivot distances plus each shard's expected contribution
``n_i * (F_i(d+r) - F_i(d-r))``, with degraded (folded / quarantined)
shards charged their full linear-scan cost ``n_i`` — and the rebalance
runs only when the candidate wins by a configurable margin.

Execution is one :meth:`~repro.service.GenerationStore.save` of
``n + 1`` artifacts — every new shard tree plus the ``membership``
document (epoch, assignment, pivot profiles):

1. **build** — check the plan against the router's epoch and objects,
   then build and fsck each new shard tree from the router's in-memory
   objects (pure compute: nothing durable changes);
2. **commit** — save the bundle; the store's manifest replace is the
   single commit point for the whole cluster;
3. **install** — hand the new shard set to
   :meth:`~repro.cluster.router.Router.install_membership`, which
   publishes it under the next epoch; queries pinned to the old
   membership finish on the old shards.

A crash at any step leaves the store loadable at exactly one epoch:
before the commit point :func:`load_cluster` sees the old generation in
full, after it the new one — never a mix.  A pre-commit crash loses
nothing a retry needs: every object a new shard holds is already in the
committed old generation, so re-planning from :func:`load_cluster`
reaches the same target epoch.
``crash_after_step`` (same contract as :meth:`GenerationStore.save`)
lets tests kill the protocol at every step;
:meth:`GenerationStore.recover`, which :func:`load_cluster` runs on
every open, rolls the store forward or back and reclaims the files the
crash left behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import CorruptedDataError
from ..metrics import Metric
from ..observability import state as _obs
from ..persistence import (
    _default_decode,
    _default_encode,
    vptree_from_dict,
    vptree_to_dict,
)
from ..reliability.fsck import fsck_vptree
from ..reliability.integrity import dumps_artifact, loads_artifact
from ..service.recovery import GenerationStore
from ..vptree.tree import VPTree
from .partition import ShardStats, partition_objects
from .router import ClusterMembership, Router
from .shard import Shard

__all__ = [
    "RebalancePlan",
    "RebalanceOutcome",
    "Rebalancer",
    "estimate_route_cost",
    "plan_rebalance",
    "save_cluster",
    "load_cluster",
]

#: Format tag of the committed membership artifact.  The value keeps the
#: name it was first written under so existing cluster stores still load.
MEMBERSHIP_FORMAT = "metricost-rebalance-v1"
MEMBERSHIP_ARTIFACT = "membership"
SHARD_ARTIFACT_PREFIX = "shard-"

PathLike = Union[str, Path]
Encoder = Callable[[Any], Any]
Decoder = Callable[[Any], Any]

#: Default probe radius as a fraction of ``d_plus`` when the planner is
#: not given one: wide enough that annulus counts are informative, small
#: enough that a healthy partition prunes most shards.
DEFAULT_PROBE_FRACTION = 0.1


@dataclass(frozen=True)
class RebalancePlan:
    """A priced proposal to move the cluster to a new partition.

    ``oids[i]`` lists the *global* object ids assigned to target shard
    ``i``; ``pivots`` the chosen pivot objects.  ``old_cost`` /
    ``new_cost`` are the cost model's expected per-query distance counts
    for the current membership and the candidate partition over the same
    probe workload, so ``gain`` is directly the fraction of routing work
    the move is predicted to save.
    """

    epoch_from: int
    epoch_to: int
    n_shards: int
    d_plus: float
    seed: int
    arity: int
    oids: Tuple[Tuple[int, ...], ...]
    pivots: Tuple[Any, ...]
    old_cost: float
    new_cost: float
    reason: str
    dists_computed: int = 0

    @property
    def gain(self) -> float:
        """Predicted fractional routing-cost saving (may be negative)."""
        if self.old_cost <= 0:
            return 0.0
        return 1.0 - self.new_cost / self.old_cost

    def improves(self, min_gain: float) -> bool:
        """True when the predicted saving clears the ``min_gain`` bar."""
        return self.gain >= min_gain

    @property
    def total_objects(self) -> int:
        return sum(len(group) for group in self.oids)


@dataclass
class RebalanceOutcome:
    """What one rebalance execution did.

    ``moved`` counts objects whose shard assignment actually changed;
    ``membership`` is the new membership installed on the router.
    """

    plan: RebalancePlan
    epoch: int
    generation: int
    moved: int
    total_steps: int
    membership: ClusterMembership


def _collect_objects(
    membership: ClusterMembership,
) -> Tuple[List[int], List[Any]]:
    """Every (global oid, object) pair in the membership, oid-ordered."""
    by_oid: Dict[int, Any] = {}
    for shard in membership.shards:
        for oid, obj in zip(shard.oids, shard.objects):
            by_oid[int(oid)] = obj
    oids = sorted(by_oid)
    return oids, [by_oid[oid] for oid in oids]


def estimate_route_cost(
    entries: Sequence[Tuple[ShardStats, bool]],
    probes: Sequence[Any],
    radius: float,
    metric: Metric,
) -> float:
    """Mean expected per-query distance count for a shard layout.

    ``entries`` pairs each shard's :class:`ShardStats` with a *degraded*
    flag.  Per probe the layout pays ``n_shards`` pivot distances; a
    degraded shard (folded to linear scan, or quarantined) then costs
    its full ``n_i``, a certified-prunable shard costs nothing, and
    every other shard costs its expected contribution
    ``n_i * (F_i(d+r) - F_i(d-r))`` — the paper's §4 cost model used to
    price the *cluster layout* rather than a tree traversal.
    """
    if not probes:
        return 0.0
    total = 0.0
    for probe in probes:
        cost = float(len(entries))
        for stats, degraded in entries:
            pivot_dist = float(metric.distance(probe, stats.pivot))
            if degraded:
                cost += stats.n_objects
            elif stats.candidate_count(pivot_dist, radius) == 0:
                continue
            else:
                cost += stats.expected_matches(pivot_dist, radius)
        total += cost
    return total / len(probes)


def plan_rebalance(
    router: Router,
    d_plus: float,
    n_shards: Optional[int] = None,
    seed: int = 0,
    probe_count: int = 16,
    probe_radius: Optional[float] = None,
    reason: str = "drift",
) -> RebalancePlan:
    """Price a fresh partition of the live dataset against the current one.

    Harvests every object from the current membership, runs
    :func:`~repro.cluster.partition.partition_objects` for a candidate
    layout, and prices both layouts with :func:`estimate_route_cost`
    over a seeded probe sample of the data itself.  Shards that are
    folded to linear scan or router-quarantined are charged their
    linear cost in the *current* layout — that asymmetry is what makes
    the ladder's "rebalance after damage" rung decidable by the cost
    model instead of by a hand-tuned flag.
    """
    membership = router.membership
    if n_shards is None:
        n_shards = len(membership.shards)
    oids, objects = _collect_objects(membership)
    partition = partition_objects(
        objects, router.metric, n_shards, d_plus, seed=seed
    )
    radius = (
        float(probe_radius)
        if probe_radius is not None
        else DEFAULT_PROBE_FRACTION * d_plus
    )
    rng = np.random.default_rng(seed + membership.epoch)
    take = min(probe_count, len(objects))
    probe_positions = rng.choice(len(objects), size=take, replace=False)
    probes = [objects[int(i)] for i in probe_positions]
    old_entries = [
        (
            shard.stats,
            shard.scan_only or router.quarantine.contains(shard.shard_id),
        )
        for shard in membership.shards
    ]
    new_entries = [(stats, False) for stats in partition.stats]
    old_cost = estimate_route_cost(
        old_entries, probes, radius, router.metric
    )
    new_cost = estimate_route_cost(
        new_entries, probes, radius, router.metric
    )
    plan_oids = tuple(
        tuple(int(oids[pos]) for pos in partition.shard_indices[shard_id])
        for shard_id in range(n_shards)
    )
    return RebalancePlan(
        epoch_from=membership.epoch,
        epoch_to=membership.epoch + 1,
        n_shards=n_shards,
        d_plus=float(d_plus),
        seed=seed,
        arity=membership.shards[0].arity,
        oids=plan_oids,
        pivots=tuple(partition.pivots),
        old_cost=old_cost,
        new_cost=new_cost,
        reason=reason,
        dists_computed=partition.dists_computed,
    )


def _membership_document(
    shards: Sequence[Shard], epoch: int, d_plus: float, seed: int,
    arity: int, encode: Encoder,
) -> Dict[str, Any]:
    return {
        "format": MEMBERSHIP_FORMAT,
        "kind": "cluster-membership",
        "epoch": int(epoch),
        "n_shards": len(shards),
        "d_plus": float(d_plus),
        "seed": int(seed),
        "arity": int(arity),
        "shards": [
            {
                "shard_id": shard.shard_id,
                "oids": [int(oid) for oid in shard.oids],
                "pivot": encode(shard.stats.pivot),
                "pivot_distances": [
                    float(v) for v in shard.stats.pivot_distances
                ],
            }
            for shard in shards
        ],
    }


def _cluster_artifacts(
    shards: Sequence[Shard], epoch: int, d_plus: float, seed: int,
    arity: int, encode: Encoder,
) -> Dict[str, str]:
    """The full artifact bundle for one committed cluster generation."""
    artifacts = {
        MEMBERSHIP_ARTIFACT: dumps_artifact(
            _membership_document(shards, epoch, d_plus, seed, arity, encode)
        )
    }
    for shard in shards:
        artifacts[f"{SHARD_ARTIFACT_PREFIX}{shard.shard_id}"] = (
            dumps_artifact(vptree_to_dict(shard.tree, encode))
        )
    return artifacts


def save_cluster(
    router: Router,
    directory: PathLike,
    d_plus: float,
    encode: Optional[Encoder] = None,
    crash_after_step: Optional[int] = None,
) -> int:
    """Commit the router's current membership as one store generation.

    One :meth:`GenerationStore.save` of every shard tree plus the
    membership document — the same commit shape a rebalance uses, so a
    freshly built cluster, a post-repair cluster, and a rebalanced
    cluster are indistinguishable on disk.  Returns the generation.
    """
    membership = router.membership
    store = GenerationStore(directory)
    artifacts = _cluster_artifacts(
        membership.shards,
        membership.epoch,
        d_plus,
        router.seed,
        membership.shards[0].arity,
        encode or _default_encode,
    )
    return store.save(artifacts, crash_after_step=crash_after_step)


def _tree_objects_in_oid_order(tree: VPTree) -> Tuple[List[int], List[Any]]:
    """Harvest ``(local oids, objects)`` from a tree, oid-ordered."""
    recovered: Dict[int, Any] = {}
    stack = [tree.root] if tree.root is not None else []
    while stack:
        node = stack.pop()
        if node.oid not in recovered:
            recovered[node.oid] = node.obj
        stack.extend(c for c in node.children if c is not None)
    oids = sorted(recovered)
    return oids, [recovered[oid] for oid in oids]


def load_cluster(
    directory: PathLike,
    metric: Metric,
    decode: Optional[Decoder] = None,
    **router_kwargs: Any,
) -> Router:
    """Reconstruct a :class:`Router` from the committed generation.

    Runs :meth:`GenerationStore.recover` first (idempotent), so a
    cluster killed at *any* byte of a rebalance reopens at exactly one
    epoch: the old one if the crash preceded the manifest commit point,
    the new one after it.  Shard trees, pivot profiles and RDDs are
    rebuilt from the stored exact pivot distances — no distance is
    recomputed.
    """
    decode = decode or _default_decode
    store = GenerationStore(directory)
    store.recover()
    texts = store.load()
    if MEMBERSHIP_ARTIFACT not in texts:
        raise CorruptedDataError(
            f"committed generation in {directory} has no "
            f"{MEMBERSHIP_ARTIFACT!r} artifact"
        )
    doc = loads_artifact(
        texts[MEMBERSHIP_ARTIFACT], source=str(directory)
    )
    if doc.get("format") != MEMBERSHIP_FORMAT:
        raise CorruptedDataError(
            f"membership artifact format {doc.get('format')!r} is not "
            f"{MEMBERSHIP_FORMAT!r}"
        )
    epoch = int(doc["epoch"])
    d_plus = float(doc["d_plus"])
    seed = int(doc["seed"])
    arity = int(doc["arity"])
    shards: List[Shard] = []
    for entry in sorted(doc["shards"], key=lambda e: int(e["shard_id"])):
        shard_id = int(entry["shard_id"])
        name = f"{SHARD_ARTIFACT_PREFIX}{shard_id}"
        if name not in texts:
            raise CorruptedDataError(
                f"membership epoch {epoch} references missing shard "
                f"artifact {name!r}"
            )
        tree = vptree_from_dict(
            loads_artifact(texts[name], source=name), metric, decode
        )
        local_oids, objects = _tree_objects_in_oid_order(tree)
        if local_oids != list(range(len(objects))):
            raise CorruptedDataError(
                f"shard {shard_id} tree oids are not a dense local range"
            )
        stats = ShardStats.from_objects(
            shard_id,
            objects,
            decode(entry["pivot"]),
            metric,
            d_plus,
            distances=np.asarray(entry["pivot_distances"], dtype=np.float64),
        )
        shards.append(
            Shard(
                shard_id=shard_id,
                objects=objects,
                oids=[int(oid) for oid in entry["oids"]],
                metric=metric,
                stats=stats,
                arity=arity,
                seed=seed,
                tree=tree,
            )
        )
    return Router(shards, metric, seed=seed, epoch=epoch, **router_kwargs)


class Rebalancer:
    """Commits rebalance plans to a cluster's generation store.

    Owns the cluster's :class:`~repro.service.GenerationStore` directory;
    a rebalance is one :meth:`~repro.service.GenerationStore.save`, so
    recovery and garbage collection are the store's own
    (``rebalancer.store.recover()`` / ``rebalancer.store.stale_files()``).
    Not thread-safe — rebalances are an administrative operation;
    serialise them externally (the :class:`ClusterLifecycle` does).
    """

    def __init__(
        self,
        directory: PathLike,
        metric: Metric,
        encode: Optional[Encoder] = None,
    ) -> None:
        self.store = GenerationStore(directory)
        self.directory = self.store.directory
        self.metric = metric
        self.encode: Encoder = encode or _default_encode

    def committed_epoch(self) -> Optional[int]:
        """The membership epoch of the committed generation, if any.

        Reads only the manifest and the membership artifact, so it needs
        no metric and builds no tree.
        """
        if self.store.generation is None:
            return None
        texts = self.store.load()
        if MEMBERSHIP_ARTIFACT not in texts:
            return None
        doc = loads_artifact(
            texts[MEMBERSHIP_ARTIFACT], source=str(self.directory)
        )
        return int(doc["epoch"])

    def total_steps(self, n_shards: int) -> int:
        """Steps in one rebalance to ``n_shards`` shards: the store's save
        protocol over ``n_shards`` shard trees plus the membership."""
        return self.store.total_save_steps(n_shards + 1)

    def execute(
        self,
        router: Router,
        plan: RebalancePlan,
        crash_after_step: Optional[int] = None,
    ) -> RebalanceOutcome:
        """Commit ``plan`` and install the new membership on ``router``.

        The new shards are built from the router's current objects and
        committed in one store save; the router then publishes them
        under ``plan.epoch_to``.  A plan made at an epoch that is no
        longer current raises :class:`~repro.exceptions.StaleEpochError`
        before any work.  ``crash_after_step=k``
        performs the first ``k`` save steps and raises
        :class:`~repro.service.SimulatedCrashError`, exactly like
        :meth:`GenerationStore.save`.
        """
        membership = router.membership_cell.require(plan.epoch_from)
        oids, objects = _collect_objects(membership)
        by_oid = dict(zip(oids, objects))
        planned = {oid for group in plan.oids for oid in group}
        if planned != set(by_oid):
            raise CorruptedDataError(
                f"rebalance plan covers {len(planned)} oids but the "
                f"source membership holds {len(by_oid)}"
            )
        new_shards = self._build_shards(plan, by_oid)
        artifacts = _cluster_artifacts(
            new_shards, plan.epoch_to, plan.d_plus, plan.seed, plan.arity,
            self.encode,
        )
        generation = self.store.save(
            artifacts, crash_after_step=crash_after_step
        )
        old_home = {
            int(oid): shard.shard_id
            for shard in membership.shards
            for oid in shard.oids
        }
        moved = sum(
            1
            for shard_id, group in enumerate(plan.oids)
            for oid in group
            if old_home[oid] != shard_id
        )
        fresh = router.install_membership(new_shards, plan.epoch_to)
        reg = _obs.registry
        if reg is not None:
            reg.inc("cluster.lifecycle.rebalances", reason=plan.reason)
            reg.inc("cluster.lifecycle.objects_moved", moved)
        return RebalanceOutcome(
            plan=plan,
            epoch=plan.epoch_to,
            generation=generation,
            moved=moved,
            total_steps=self.total_steps(plan.n_shards),
            membership=fresh,
        )

    def _build_shards(
        self, plan: RebalancePlan, by_oid: Dict[int, Any]
    ) -> List[Shard]:
        """Build and fsck every target shard of ``plan``."""
        shards: List[Shard] = []
        for shard_id, group in enumerate(plan.oids):
            oids = list(group)
            objects = [by_oid[oid] for oid in oids]
            tree = VPTree.build(
                objects, self.metric, arity=plan.arity,
                seed=plan.seed + shard_id,
            )
            report = fsck_vptree(tree)
            if not report.ok:
                raise CorruptedDataError(
                    f"rebuilt tree for shard {shard_id} failed fsck: "
                    f"{report.kinds()}"
                )
            pivot = (
                plan.pivots[shard_id]
                if shard_id < len(plan.pivots)
                else objects[0]
            )
            stats = ShardStats.from_objects(
                shard_id, objects, pivot, self.metric, plan.d_plus
            )
            shards.append(
                Shard(
                    shard_id=shard_id,
                    objects=objects,
                    oids=oids,
                    metric=self.metric,
                    stats=stats,
                    arity=plan.arity,
                    seed=plan.seed,
                    tree=tree,
                )
            )
        return shards
