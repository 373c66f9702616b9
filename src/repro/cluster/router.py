"""Scatter-gather router: cost-model pruning, hedging, partial answers.

The router is the cluster's front door.  For every range/k-NN request it

1. computes the query↔pivot distances (``n_shards`` metric evaluations,
   counted exactly as ``router_dists`` — the CMT discipline of never
   discarding a distance: the same values drive pruning, k-NN bounding
   and merging);
2. **prunes** shards the cost model *proves* cannot contribute: a shard
   whose exact pivot-distance annulus count
   (:meth:`~repro.cluster.partition.ShardStats.candidate_count`) is zero
   holds no possible match, so skipping it is free — and, crucially,
   a pruned-but-dead shard costs the answer nothing;
3. **scatters** to the surviving shards — the request thread starts
   one attempt thread per shard and collects every outcome itself —
   under per-shard sub-deadlines carved from the request budget, with
   bounded retry/backoff (:class:`~repro.reliability.RetryPolicy`) and
   a **hedged** duplicate request for each shard still silent
   ``hedge_delay_s`` after the scatter began — first good answer
   wins, the loser is cancelled through its
   :class:`~repro.context.Context`.  A k-NN with more than one target
   scatters in two phases: first only to the target with the smallest
   pivot distance; when that shard answers ``ok`` with at least ``k``
   items, its k-th distance — a computed distance, so an upper bound on
   the global k-th — re-prunes the other targets at that radius
   (``knn_bound`` rule) and bounds the best-first search of the ones
   that survive.  Without such an answer (failed, quarantined, or a
   shard smaller than ``k``) the second phase scatters unbounded;
4. **gathers** into a typed :class:`RouterOutcome` that always says
   exactly what happened: per-shard reports, object-weighted
   completeness, ``shards_pruned`` / ``shards_failed`` /
   ``shards_hedged`` accounting — never a silently short answer;
5. applies the ``min_completeness`` rung: when too much of the dataset
   was unreachable, the router re-answers by linear scan over every
   healthy shard's pristine snapshot (completeness restored at linear
   cost, flagged ``degraded``/``fallback_used``).

Shard-level failover is quarantine-based: a shard that gave no good
answer because an attempt ended in a
:data:`~repro.service.breaker.DEFAULT_TRIP_ON` fault (a dead machine),
or whose fsck finds structural damage, is quarantined at the router
(``unreachable`` / ``fsck`` reasons) and skipped instantly by
subsequent queries until :meth:`Router.recheck` lifts it.  Deadlines,
cancellations and other library errors (a bad request) never
quarantine.  The
background scrubbers of :class:`~repro.cluster.lifecycle.ClusterLifecycle`
promote the structural faults they find the same way (``scrub`` reason)
— no manual ``health_check`` needed.

Routing follows the epoch rule of :mod:`repro.service.epoch`: the
router keeps its :class:`ClusterMembership` (epoch, shards, shard
quarantine) in an :class:`~repro.service.EpochCell`.  Every request
pins one membership and reads only it, so each answer is exact for the
one epoch ``RouterOutcome.epoch`` names.  A rebalance or repair
publishes a newer membership (:meth:`Router.install_membership`);
requests pinned to the old one finish on it undisturbed.

Completeness aggregation is **object-weighted**, not min: a pruned shard
contributes its full weight (the cost model proved it empty for this
query), an answering shard contributes ``n_i * completeness_i``, a
failed shard contributes zero.  With four equal shards and one dead,
every answer honestly reports 0.75 — the min rule would report 0.0 and
make partial answers useless.
"""

from __future__ import annotations

import dataclasses
import math
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..context import Context, Deadline
from ..exceptions import (
    DeadlineExceededError,
    InvalidParameterError,
    MetricostError,
    OperationCancelledError,
)
from ..metrics import Metric
from ..observability import state as _obs
from ..reliability.retry import RetryPolicy
from ..service.breaker import DEFAULT_TRIP_ON
from ..service.epoch import EpochCell
from ..service.service import (
    QueryOutcome,
    QueryRequest,
    ServiceReport,
    run_batch,
)
from .partition import ShardStats, partition_objects
from .shard import Shard

__all__ = [
    "ShardReport",
    "RouterOutcome",
    "RouterReport",
    "ShardQuarantine",
    "ClusterMembership",
    "Router",
    "build_cluster",
]

_QUARANTINE_REASONS = ("unreachable", "fsck", "scrub", "manual")

#: A primary shard attempt that raises a ``DEFAULT_TRIP_ON`` fault is
#: tried this many times in all, backing off from ``RETRY_BASE_DELAY_S``
#: (jittered, capped at 50 ms and at the attempt's sub-deadline).
RETRY_ATTEMPTS = 2
RETRY_BASE_DELAY_S = 0.002


class ShardQuarantine:
    """Thread-safe shard-id → reason map the router consults per query.

    Mirrors :class:`~repro.reliability.QuarantineSet` one level up: the
    node-level set routes *traversals* around damaged subtrees, this one
    routes *queries* around damaged shards.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._reasons: Dict[int, str] = {}

    def add(self, shard_id: int, reason: str) -> None:
        if reason not in _QUARANTINE_REASONS:
            raise InvalidParameterError(
                f"reason must be one of {_QUARANTINE_REASONS}, got {reason!r}"
            )
        with self._lock:
            self._reasons[shard_id] = reason
        reg = _obs.registry
        if reg is not None:
            reg.inc("cluster.quarantine_adds", reason=reason)

    def discard(self, shard_id: int) -> None:
        with self._lock:
            self._reasons.pop(shard_id, None)

    def contains(self, shard_id: int) -> bool:
        with self._lock:
            return shard_id in self._reasons

    def reason(self, shard_id: int) -> Optional[str]:
        with self._lock:
            return self._reasons.get(shard_id)

    def reasons(self) -> Dict[int, str]:
        """Snapshot of the current quarantine map."""
        with self._lock:
            return dict(self._reasons)

    def __len__(self) -> int:
        with self._lock:
            return len(self._reasons)

    def __bool__(self) -> bool:
        return len(self) > 0


@dataclass
class ShardReport:
    """What one shard contributed to (or withheld from) one answer.

    ``status`` is ``"ok"``, ``"pruned"`` (cost model proved
    zero contribution — carries the exact annulus count that proves it),
    ``"quarantined"`` (skipped: shard was quarantined at the router)
    or ``"failed"`` (scattered to, but no usable answer came back).
    A pruned report names the radius its zero count was certified at
    (``prune_radius``) and the rule that chose it (``prune_rule``:
    ``annulus`` at classification, ``knn_bound`` for a k-NN target
    re-pruned at the nearest shard's k-th distance).
    ``attempts`` logs every attempt's terminal status (``ok``,
    ``error``, ``deadline`` or ``cancelled``) in order
    (``[("primary", "cancelled"), ("hedge", "ok")]`` is a hedge win).
    """

    shard_id: int
    status: str
    n_objects: int
    pivot_dist: float
    completeness: float = 0.0
    items: List[Tuple[int, Any, float]] = field(default_factory=list)
    dists: int = 0
    latency_s: float = 0.0
    hedged: bool = False
    hedge_won: bool = False
    scanned: bool = False
    attempts: List[Tuple[str, str]] = field(default_factory=list)
    exact_candidates: Optional[int] = None
    expected_matches: Optional[float] = None
    prune_radius: Optional[float] = None
    prune_rule: Optional[str] = None
    quarantine_reason: Optional[str] = None
    error: Optional[str] = None


@dataclass
class RouterOutcome:
    """How one scatter-gather request ended — always a typed answer.

    ``completeness`` is the object-weighted reachable fraction of the
    whole dataset; ``status`` stays ``"ok"`` for honest partial answers
    (the accounting says what is missing) and only becomes
    ``"deadline"`` / ``"cancelled"`` when the *router-level* budget blew
    before an answer could be assembled.  ``epoch`` names the one
    membership snapshot the request pinned; every contributing shard
    view belongs to it.
    """

    request: QueryRequest
    status: str
    latency_s: float
    items: List[Tuple[int, Any, float]] = field(default_factory=list)
    completeness: float = 0.0
    degraded: bool = False
    fallback_used: bool = False
    epoch: int = 0
    shards_total: int = 0
    shards_ok: int = 0
    shards_pruned: int = 0
    shards_failed: int = 0
    shards_hedged: int = 0
    router_dists: int = 0
    dists: int = 0
    shard_reports: List[ShardReport] = field(default_factory=list)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class RouterReport(ServiceReport[RouterOutcome]):
    """A batch of router outcomes summarised."""

    @property
    def min_completeness(self) -> float:
        if not self.outcomes:
            return 0.0
        return min(o.completeness for o in self.outcomes)

    def render(self) -> str:
        lines = [
            f"{self.total} routed requests over {self.wall_s * 1e3:.1f} ms "
            f"with {self.workers} worker(s): "
            f"{len(self.accepted)} ok "
            f"({sum(1 for o in self.accepted if o.degraded)} degraded, "
            f"{sum(1 for o in self.accepted if o.fallback_used)} fallback), "
            f"{self.count('deadline')} deadline, "
            f"{self.count('cancelled')} cancelled, "
            f"{self.count('error')} error",
            f"shards: {sum(o.shards_pruned for o in self.outcomes)} pruned, "
            f"{sum(o.shards_failed for o in self.outcomes)} failed, "
            f"{sum(o.shards_hedged for o in self.outcomes)} hedged",
        ]
        if self.accepted:
            lines.append(
                f"completeness: min {self.min_completeness:.3f}; "
                f"latency p50 {self.latency_percentile(50) * 1e3:.3f} ms, "
                f"p99 {self.latency_percentile(99) * 1e3:.3f} ms; "
                f"throughput {self.throughput_qps:,.0f} q/s"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class ClusterMembership:
    """One cluster view: an epoch, its shards and their quarantine.

    Shards are ordered by ``shard_id`` (``shards[i].shard_id == i``) so
    per-query indexing stays O(1).  A query runs against exactly one
    membership snapshot, and a published epoch and shard set are never
    changed, so a snapshot can never yield a cross-epoch answer.  Each
    membership starts with an empty quarantine, so a request pinned to
    an old one never quarantines a shard of its successor (shard ids
    repeat across epochs).
    """

    epoch: int
    shards: Tuple[Shard, ...]
    quarantine: ShardQuarantine = field(
        default_factory=ShardQuarantine, init=False, compare=False,
        repr=False,
    )

    @property
    def total_objects(self) -> int:
        return sum(shard.n_objects for shard in self.shards)


class Router:
    """Scatter-gather over shards with pruning, hedging, and quarantine.

    ``hedge_delay_s=math.inf`` never hedges.  ``prune=False`` prunes no
    shard and scatters every k-NN in one unbounded phase.
    """

    def __init__(
        self,
        shards: Sequence[Shard],
        metric: Metric,
        hedge_delay_s: float = 0.05,
        shard_timeout_s: float = 2.0,
        min_completeness: float = 0.0,
        prune: bool = True,
        seed: int = 0,
        epoch: int = 1,
    ):
        if len(shards) == 0:
            raise InvalidParameterError("router needs at least one shard")
        if not (hedge_delay_s >= 0):
            raise InvalidParameterError(
                f"hedge_delay_s must be >= 0, got {hedge_delay_s}"
            )
        if not (shard_timeout_s > 0):
            raise InvalidParameterError(
                f"shard_timeout_s must be > 0, got {shard_timeout_s}"
            )
        if not (0.0 <= min_completeness <= 1.0):
            raise InvalidParameterError(
                f"min_completeness must lie in [0, 1], got {min_completeness}"
            )
        if epoch < 1:
            raise InvalidParameterError(
                f"membership epoch must be >= 1, got {epoch}"
            )
        self.metric = metric
        self.hedge_delay_s = hedge_delay_s
        self.shard_timeout_s = shard_timeout_s
        self.min_completeness = min_completeness
        self.prune = prune
        self.seed = seed
        self._lock = threading.Lock()
        self.membership_cell: EpochCell[ClusterMembership] = EpochCell(
            self._validated_membership(shards, epoch)
        )
        self.stats: Dict[str, int] = {}

    # -- membership --------------------------------------------------------

    @staticmethod
    def _validated_membership(
        shards: Sequence[Shard], epoch: int
    ) -> ClusterMembership:
        for index, shard in enumerate(shards):
            if shard.shard_id != index:
                raise InvalidParameterError(
                    f"shards must be ordered by id: position {index} "
                    f"holds shard {shard.shard_id}"
                )
            if shard.stats is None:
                raise InvalidParameterError(
                    f"shard {shard.shard_id} has no ShardStats; the router "
                    "needs pivot-distance profiles for routing"
                )
        return ClusterMembership(epoch=int(epoch), shards=tuple(shards))

    @property
    def membership(self) -> ClusterMembership:
        """The current immutable cluster view (atomic snapshot)."""
        return self.membership_cell.snapshot()

    @property
    def epoch(self) -> int:
        return self.membership.epoch

    @property
    def quarantine(self) -> ShardQuarantine:
        """The current membership's shard quarantine."""
        return self.membership.quarantine

    @property
    def shards(self) -> List[Shard]:
        return list(self.membership.shards)

    @property
    def total_objects(self) -> int:
        return self.membership.total_objects

    def install_membership(
        self, shards: Sequence[Shard], epoch: int
    ) -> ClusterMembership:
        """Publish a new cluster view under a strictly greater epoch.

        A non-increasing ``epoch`` raises
        :class:`~repro.exceptions.StaleEpochError` and leaves the
        membership unchanged.  Requests already pinned to the previous
        membership finish on it; later ones pin the new one, with an
        empty quarantine.
        """
        if len(shards) == 0:
            raise InvalidParameterError("membership needs at least one shard")
        fresh = self.membership_cell.publish(
            self._validated_membership(shards, epoch)
        )
        reg = _obs.registry
        if reg is not None:
            reg.set_gauge("cluster.epoch", fresh.epoch)
            reg.inc("cluster.lifecycle.epoch_bumps")
            reg.set_gauge("cluster.quarantined_shards", len(self.quarantine))
        return fresh

    # -- accounting --------------------------------------------------------

    def _count(self, status: str) -> None:
        with self._lock:
            self.stats[status] = self.stats.get(status, 0) + 1
        reg = _obs.registry
        if reg is not None:
            reg.inc("cluster.queries", status=status)

    @staticmethod
    def _mirror_shard(report: ShardReport) -> None:
        reg = _obs.registry
        if reg is None:
            return
        reg.inc("cluster.shard_outcomes", status=report.status)
        if report.status == "pruned":
            reg.inc("cluster.shards_pruned")
        if report.hedged:
            reg.inc("cluster.hedges")
        if report.hedge_won:
            reg.inc("cluster.hedge_wins")

    # -- routing decisions -------------------------------------------------

    @staticmethod
    def _knn_radius_bound(
        request: QueryRequest,
        pivot_dists: np.ndarray,
        shards: Sequence[Shard],
    ) -> float:
        """A guaranteed upper bound on the k-th NN distance over the
        objects of ``shards`` (the reachable ones): the k-th smallest of
        ``d(q,p_i) + t`` across their k pivot-closest members.  Any shard
        with no member inside the resulting annulus provably contributes
        nothing to the final k answer."""
        k = request.k or 1
        bounds: List[np.ndarray] = []
        for shard in shards:
            stats: ShardStats = shard.stats
            bounds.append(stats.knn_upper_bounds(
                float(pivot_dists[shard.shard_id]), k
            ))
        if not bounds:
            return float("inf")
        merged = np.sort(np.concatenate(bounds))
        take = min(k, merged.size)
        return float(merged[take - 1])

    def _classify(
        self,
        request: QueryRequest,
        pivot_dists: np.ndarray,
        membership: ClusterMembership,
    ) -> Tuple[List[ShardReport], List[Shard], float]:
        """Split shards into pruned / quarantined / scatter targets."""
        if request.kind == "range":
            radius = float(request.radius or 0.0)
        else:
            radius = self._knn_radius_bound(
                request,
                pivot_dists,
                [
                    shard
                    for shard in membership.shards
                    if not membership.quarantine.contains(shard.shard_id)
                ],
            )
        reports: List[ShardReport] = []
        targets: List[Shard] = []
        for shard in membership.shards:
            pivot_dist = float(pivot_dists[shard.shard_id])
            stats: ShardStats = shard.stats
            reason = membership.quarantine.reason(shard.shard_id)
            if reason is not None:
                reports.append(
                    ShardReport(
                        shard_id=shard.shard_id,
                        status="quarantined",
                        n_objects=shard.n_objects,
                        pivot_dist=pivot_dist,
                        quarantine_reason=reason,
                    )
                )
                continue
            exact = (
                stats.candidate_count(pivot_dist, radius)
                if self.prune and np.isfinite(radius)
                else None
            )
            report = ShardReport(
                shard_id=shard.shard_id,
                status="failed",  # until the scatter says otherwise
                n_objects=shard.n_objects,
                pivot_dist=pivot_dist,
                exact_candidates=exact,
                expected_matches=(
                    stats.expected_matches(pivot_dist, radius)
                    if exact is not None
                    else None
                ),
            )
            reports.append(report)
            if exact == 0:
                _mark_pruned(report, stats, radius, "annulus", request.kind)
            else:
                targets.append(shard)
        return reports, targets, radius

    # -- scatter -----------------------------------------------------------

    def _sub_context(self, budget: Optional[Any]) -> Context:
        """A per-attempt context: shard timeout capped by the request
        budget (never grants a shard more time than the caller has)."""
        timeout = self.shard_timeout_s
        if budget is not None:
            remaining = budget.remaining_s()
            if np.isfinite(remaining):
                timeout = min(timeout, max(0.0, remaining))
        return Context(Deadline.after(timeout))

    def _attempt(
        self,
        shard: Shard,
        label: str,
        request: QueryRequest,
        ctx: Context,
        results: "queue.Queue[Tuple[int, str, Any]]",
        bound: float,
    ) -> None:
        """Run one shard attempt on this thread and post how it ended:
        the shard's outcome, or the exception that ended the attempt.
        A primary retries ``DEFAULT_TRIP_ON`` faults under a bounded
        policy; a hedge gets exactly one try.  ``bound`` is passed on
        to :meth:`Shard.submit`."""
        ended: Any
        try:
            ended = (
                shard.submit(request, context=ctx, bound=bound)
                if label == "hedge"
                else RetryPolicy(
                    max_attempts=RETRY_ATTEMPTS,
                    base_delay_s=RETRY_BASE_DELAY_S,
                    max_delay_s=0.05,
                    retry_on=DEFAULT_TRIP_ON,
                    seed=self.seed + shard.shard_id,
                ).call(
                    shard.submit, request, context=ctx, deadline=ctx,
                    bound=bound,
                )
            )
        except (DeadlineExceededError, OperationCancelledError) as exc:
            ended = exc
        except Exception as exc:  # noqa: BLE001 — reported, never lost
            # Every attempt must post, or the scatter waits forever.
            ended = exc
        results.put((shard.shard_id, label, ended))

    def _scatter(
        self,
        targets: Sequence[Shard],
        request: QueryRequest,
        reports: Sequence[ShardReport],
        budget: Optional[Any],
        quarantine: ShardQuarantine,
        bound: float = math.inf,
    ) -> None:
        """Drive every target shard from this thread: one primary
        attempt thread each, a hedge for each shard still silent
        ``hedge_delay_s`` after this call began, first good answer
        per shard wins and its other attempt is cancelled via its
        context.  Fills in each target's :class:`ShardReport`; a shard
        left with no good answer after a ``DEFAULT_TRIP_ON`` fault goes
        into the pinned ``quarantine`` as ``unreachable``.

        A k-NN runs this twice (see :meth:`_scatter_knn`): once for the
        nearest target alone, then for the rest with ``bound``, the
        k-th distance the first answered, passed to every attempt's
        :meth:`Shard.submit`."""
        start = time.perf_counter()
        results: "queue.Queue[Tuple[int, str, Any]]" = queue.Queue()
        by_id = {report.shard_id: report for report in reports}
        contexts: Dict[int, List[Context]] = {}
        pending: Dict[int, int] = {}
        winners: Dict[int, Tuple[str, QueryOutcome]] = {}
        tripped: set = set()
        threads: List[threading.Thread] = []

        def launch(shard: Shard, label: str) -> None:
            ctx = self._sub_context(budget)
            attempt_request = (
                # Marked hedged so chaos/fault layers can tell the
                # duplicate from the primary it races.
                dataclasses.replace(request, hedged=True)
                if label == "hedge"
                else request
            )
            contexts.setdefault(shard.shard_id, []).append(ctx)
            pending[shard.shard_id] = pending.get(shard.shard_id, 0) + 1
            thread = threading.Thread(
                target=self._attempt,
                args=(shard, label, attempt_request, ctx, results, bound),
                name=f"route-{shard.shard_id}-{label}",
            )
            threads.append(thread)
            thread.start()

        for shard in targets:
            launch(shard, "primary")
        hedge_at = (
            start + self.hedge_delay_s
            if math.isfinite(self.hedge_delay_s)
            else None
        )
        while any(pending.values()):
            try:
                shard_id, label, ended = results.get(
                    timeout=(
                        None
                        if hedge_at is None
                        else max(0.0, hedge_at - time.perf_counter())
                    )
                )
            except queue.Empty:
                # The hedge delay passed: race a duplicate for every
                # shard still silent.  A shard whose primary already
                # failed gets none — it answered (badly) quickly.
                hedge_at = None
                for shard in targets:
                    if pending[shard.shard_id]:
                        launch(shard, "hedge")
                        by_id[shard.shard_id].hedged = True
                continue
            pending[shard_id] -= 1
            report = by_id[shard_id]
            status = _status(ended)
            report.attempts.append((label, status))
            report.latency_s = time.perf_counter() - start
            if status == "error" and isinstance(ended, DEFAULT_TRIP_ON):
                # The status test keeps deadlines out: a deadline error is
                # a TimeoutError, so DEFAULT_TRIP_ON matches it too.
                tripped.add(shard_id)
            elif isinstance(ended, QueryOutcome) and shard_id not in winners:
                winners[shard_id] = (label, ended)
                # First good answer wins: stop the other attempt.
                for ctx in contexts[shard_id]:
                    ctx.cancel()
        # Attempts are bounded by their sub-deadlines, so joins terminate.
        for thread in threads:
            thread.join()
        for shard in targets:
            report = by_id[shard.shard_id]
            if shard.shard_id in winners:
                label, outcome = winners[shard.shard_id]
                report.status = "ok"
                report.hedge_won = label == "hedge"
                report.completeness = outcome.completeness
                report.items = list(outcome.items or [])
                report.dists = outcome.dists
                continue
            report.status = "failed"
            report.error = "; ".join(
                f"{label}={status}" for label, status in report.attempts
            )
            if shard.shard_id in tripped:
                # Failover: the shard's machine failed — quarantine it
                # so the next queries skip it instantly instead of
                # re-discovering the fault.
                quarantine.add(shard.shard_id, "unreachable")

    def _scatter_knn(
        self,
        targets: Sequence[Shard],
        request: QueryRequest,
        reports: Sequence[ShardReport],
        budget: Optional[Any],
        quarantine: ShardQuarantine,
    ) -> None:
        """The two-phase k-NN scatter: the target with the smallest pivot
        distance (ties to the lower id) first; then, when it answered
        ``ok`` with at least ``k`` items, every other target re-pruned
        at its k-th distance and the survivors scattered bounded by it.
        Otherwise the rest scatter unbounded, as a one-phase scatter
        would."""
        by_id = {report.shard_id: report for report in reports}
        first = min(
            targets, key=lambda s: (by_id[s.shard_id].pivot_dist, s.shard_id)
        )
        self._scatter([first], request, reports, budget, quarantine)
        rest = [shard for shard in targets if shard is not first]
        lead = by_id[first.shard_id]
        k = request.k or 1
        if lead.status != "ok" or len(lead.items) < k:
            self._scatter(rest, request, reports, budget, quarantine)
            return
        # A real computed distance: k objects lie within it, so it
        # bounds the global k-th distance from above.
        kth = sorted(dist for _oid, _obj, dist in lead.items)[k - 1]
        survivors = []
        for shard in rest:
            report = by_id[shard.shard_id]
            if shard.stats.candidate_count(report.pivot_dist, kth) == 0:
                _mark_pruned(
                    report, shard.stats, kth, "knn_bound", request.kind
                )
            else:
                survivors.append(shard)
        self._scatter(
            survivors, request, reports, budget, quarantine, bound=kth
        )

    def _revive_annulus_prunes(
        self,
        request: QueryRequest,
        pivot_dists: np.ndarray,
        membership: ClusterMembership,
        reports: Sequence[ShardReport],
        budget: Optional[Any],
    ) -> None:
        """Re-certify a k-NN's ``annulus`` prunes after a target failed.

        The classification bound counted every shard not quarantined,
        the one that then failed included, so it may lie below the k-th
        distance over the reachable objects.  The bound is recomputed
        over the shards that answered or were pruned; a prune whose
        count stays zero now names that radius, and every other pruned
        shard is scattered.  That bound counted the revived shards too,
        so while one of them fails, the check runs again without it.
        The revived shards scatter unbounded: a later round's bound can
        only be larger, and an answer cut at a smaller one would miss
        objects between the two."""
        by_id = {report.shard_id: report for report in reports}
        while True:
            radius = self._knn_radius_bound(
                request,
                pivot_dists,
                [
                    shard
                    for shard in membership.shards
                    if by_id[shard.shard_id].status in ("ok", "pruned")
                ],
            )
            revived = []
            for shard in membership.shards:
                report = by_id[shard.shard_id]
                if report.prune_rule != "annulus":
                    continue
                finite = math.isfinite(radius)
                count = (
                    shard.stats.candidate_count(report.pivot_dist, radius)
                    if finite
                    else None
                )
                report.exact_candidates = count
                report.expected_matches = (
                    shard.stats.expected_matches(report.pivot_dist, radius)
                    if finite
                    else None
                )
                if count == 0:
                    report.prune_radius = radius
                    continue
                report.status = "failed"  # until the scatter says otherwise
                report.completeness = 0.0
                report.prune_radius = None
                report.prune_rule = None
                revived.append(shard)
            if not revived:
                return
            self._scatter(
                revived, request, reports, budget, membership.quarantine
            )
            if all(by_id[s.shard_id].status == "ok" for s in revived):
                return

    # -- gather ------------------------------------------------------------

    @staticmethod
    def _merge(
        request: QueryRequest, reports: Sequence[ShardReport]
    ) -> List[Tuple[int, Any, float]]:
        """Merge per-shard answers in one global-oid space.

        k-NN deduplicates by oid (a hedge pair can only double *within*
        one shard, and only one attempt's items are kept, but the guard
        costs nothing and makes the invariant explicit)."""
        everything: List[Tuple[int, Any, float]] = []
        for report in reports:
            everything.extend(report.items)
        everything.sort(key=lambda item: (item[2], item[0]))
        if request.kind == "range":
            return everything
        merged: List[Tuple[int, Any, float]] = []
        seen: set = set()
        for oid, obj, dist in everything:
            if oid in seen:
                continue
            seen.add(oid)
            merged.append((oid, obj, dist))
            if len(merged) >= (request.k or 1):
                break
        return merged

    @staticmethod
    def _aggregate_completeness(
        reports: Sequence[ShardReport], total_objects: int
    ) -> float:
        """Object-weighted completeness over the whole dataset.

        Pruned shards count as fully covered (the cost model proved they
        hold no match for this query), answering shards contribute their
        own completeness weighted by size, failed/quarantined shards
        contribute zero.
        """
        if total_objects == 0:
            return 1.0
        covered = 0.0
        for report in reports:
            if report.status == "pruned":
                covered += report.n_objects
            elif report.status == "ok":
                covered += report.n_objects * report.completeness
        return covered / total_objects

    def _fallback_scan(
        self,
        request: QueryRequest,
        reports: Sequence[ShardReport],
        budget: Optional[Any],
        membership: ClusterMembership,
    ) -> int:
        """The last rung: linear-scan every reachable shard whose answer
        was missing or incomplete.  Certified-pruned shards are skipped
        (scanning them cannot add matches); dead shards stay failed.
        Returns the distances spent."""
        dists = 0
        for report in reports:
            if report.status == "pruned":
                continue
            if report.status == "ok" and report.completeness >= 1.0:
                continue
            shard = membership.shards[report.shard_id]
            try:
                items, n_dists = shard.scan(request, deadline=budget)
            except (DeadlineExceededError, OperationCancelledError):
                raise
            except MetricostError as exc:
                report.error = f"{type(exc).__name__}: {exc}"
                continue
            dists += n_dists
            report.items = items
            report.dists += n_dists
            report.status = "ok"
            report.completeness = 1.0
            report.scanned = True
            reg = _obs.registry
            if reg is not None:
                reg.inc("cluster.fallback_scans", shard=str(report.shard_id))
        return dists

    # -- public API --------------------------------------------------------

    def execute(
        self,
        request: QueryRequest,
        deadline: Optional[Deadline] = None,
        context: Optional[Context] = None,
    ) -> RouterOutcome:
        """One scatter-gather request; always returns a typed outcome.

        The request pins the current membership once and answers
        exactly from it, even if a newer one is published meanwhile.
        """
        start = time.perf_counter()
        budget: Optional[Any] = context if context is not None else deadline
        tracer = _obs.tracer
        membership = self.membership
        try:
            if tracer is not None:
                with tracer.span(
                    "cluster.route", kind=request.kind,
                    shards=len(membership.shards),
                    epoch=membership.epoch,
                ):
                    outcome = self._execute(request, budget, start, membership)
            else:
                outcome = self._execute(request, budget, start, membership)
        except (DeadlineExceededError, OperationCancelledError) as exc:
            outcome = RouterOutcome(
                request=request,
                status=(
                    "deadline"
                    if isinstance(exc, DeadlineExceededError)
                    else "cancelled"
                ),
                latency_s=time.perf_counter() - start,
                epoch=membership.epoch,
                shards_total=len(membership.shards),
                error=str(exc),
            )
        self._count(outcome.status)
        reg = _obs.registry
        if reg is not None:
            reg.observe(
                "cluster.latency_seconds", outcome.latency_s,
                status=outcome.status,
            )
            if outcome.ok:
                reg.observe("cluster.completeness", outcome.completeness)
            reg.set_gauge("cluster.quarantined_shards", len(self.quarantine))
        return outcome

    def _execute(
        self,
        request: QueryRequest,
        budget: Optional[Any],
        start: float,
        membership: ClusterMembership,
    ) -> RouterOutcome:
        if budget is not None:
            budget.check("routed query")
        pivot_dists = np.asarray(
            self.metric.one_to_many(
                request.query, [s.stats.pivot for s in membership.shards]
            ),
            dtype=np.float64,
        )
        router_dists = len(membership.shards)
        reports, targets, _radius = self._classify(
            request, pivot_dists, membership
        )
        if request.kind == "knn" and self.prune and len(targets) > 1:
            self._scatter_knn(
                targets, request, reports, budget, membership.quarantine
            )
        else:
            self._scatter(
                targets, request, reports, budget, membership.quarantine
            )
        if request.kind == "knn" and any(
            report.status == "failed" for report in reports
        ):
            self._revive_annulus_prunes(
                request, pivot_dists, membership, reports, budget
            )
        completeness = self._aggregate_completeness(
            reports, membership.total_objects
        )
        fallback_used = False
        degraded = any(
            r.status != "ok" and r.status != "pruned" for r in reports
        ) or any(
            r.status == "ok" and r.completeness < 1.0 for r in reports
        )
        if completeness < self.min_completeness:
            fallback_dists = self._fallback_scan(
                request, reports, budget, membership
            )
            router_dists += fallback_dists
            fallback_used = fallback_dists > 0
            completeness = self._aggregate_completeness(
                reports, membership.total_objects
            )
        for report in reports:
            self._mirror_shard(report)
        items = self._merge(request, reports)
        return RouterOutcome(
            request=request,
            status="ok",
            latency_s=time.perf_counter() - start,
            items=items,
            completeness=completeness,
            degraded=degraded or fallback_used,
            fallback_used=fallback_used,
            epoch=membership.epoch,
            shards_total=len(membership.shards),
            shards_ok=sum(1 for r in reports if r.status == "ok"),
            shards_pruned=sum(1 for r in reports if r.status == "pruned"),
            shards_failed=sum(
                1 for r in reports
                if r.status in ("failed", "quarantined")
            ),
            shards_hedged=sum(1 for r in reports if r.hedged),
            router_dists=router_dists,
            dists=router_dists + sum(r.dists for r in reports),
            shard_reports=reports,
        )

    def run(
        self,
        requests: Sequence[QueryRequest],
        workers: int = 4,
        deadline_ms: Optional[float] = None,
    ) -> RouterReport:
        """Drive a batch through ``workers`` threads (see
        :func:`~repro.service.service.run_batch`); summarise."""
        outcomes, wall_s = run_batch(
            self.execute, requests, workers, deadline_ms
        )
        return RouterReport(outcomes=outcomes, wall_s=wall_s, workers=workers)

    # -- health ------------------------------------------------------------

    def health_check(self) -> List[dict]:
        """Fsck every non-quarantined shard; quarantine what fails.
        Returns one record per new quarantine."""
        membership = self.membership  # pin once: ids are reused
        records: List[dict] = []
        for shard in membership.shards:
            if membership.quarantine.contains(shard.shard_id):
                continue
            if shard.scan_only:
                # Folded shards serve from the pristine snapshot; their
                # abandoned index structure is not health-relevant.
                continue
            fsck = shard.fsck()
            if not fsck.ok:
                membership.quarantine.add(shard.shard_id, "fsck")
                records.append(
                    {
                        "shard_id": shard.shard_id,
                        "reason": "fsck",
                        "fault_kinds": fsck.kinds(),
                    }
                )
        return records

    def recheck(self) -> List[int]:
        """Lift quarantines whose cause has cleared (shard no longer
        dead; fsck now clean).  Returns the shard ids brought back."""
        membership = self.membership  # pin once: ids are reused
        lifted: List[int] = []
        for shard_id, reason in membership.quarantine.reasons().items():
            shard = membership.shards[shard_id]
            if reason == "unreachable":
                if shard.chaos.mode != "dead":
                    membership.quarantine.discard(shard_id)
                    lifted.append(shard_id)
            elif reason in ("fsck", "scrub"):
                if shard.fsck().ok:
                    membership.quarantine.discard(shard_id)
                    lifted.append(shard_id)
        reg = _obs.registry
        if reg is not None:
            reg.set_gauge(
                "cluster.quarantined_shards", len(membership.quarantine)
            )
        return lifted

    def __repr__(self) -> str:
        return (
            f"Router(shards={len(self.shards)}, "
            f"objects={self.total_objects}, "
            f"quarantined={len(self.quarantine)})"
        )


def _mark_pruned(
    report: ShardReport,
    stats: ShardStats,
    radius: float,
    rule: str,
    kind: str,
) -> None:
    """Turn ``report`` into a certified prune: its exact candidate count
    at ``radius`` is zero, so the shard holds nothing within it."""
    report.status = "pruned"
    report.completeness = 1.0
    report.exact_candidates = 0
    report.expected_matches = stats.expected_matches(report.pivot_dist, radius)
    report.prune_radius = radius
    report.prune_rule = rule
    reg = _obs.registry
    if reg is not None:
        reg.inc(
            "cluster.prune_decisions",
            kind=kind,
            shard=str(report.shard_id),
            rule=rule,
        )


def _status(ended: Any) -> str:
    """A shard attempt's terminal status: its outcome's, or the one its
    exception maps to."""
    if isinstance(ended, QueryOutcome):
        return ended.status
    if isinstance(ended, DeadlineExceededError):
        return "deadline"
    if isinstance(ended, OperationCancelledError):
        return "cancelled"
    return "error"


def build_cluster(
    objects: Sequence[Any],
    metric: Metric,
    n_shards: int,
    d_plus: float,
    seed: int = 0,
    arity: int = 4,
    hedge_delay_s: float = 0.05,
    shard_timeout_s: float = 2.0,
    min_completeness: float = 0.0,
    prune: bool = True,
) -> Router:
    """Partition ``objects``, build one :class:`Shard` per slice, and
    front them with a :class:`Router` — the one-call cluster."""
    partition = partition_objects(
        objects, metric, n_shards, d_plus, seed=seed
    )
    shards = [
        Shard(
            shard_id=shard_id,
            objects=[objects[i] for i in partition.shard_indices[shard_id]],
            oids=[int(i) for i in partition.shard_indices[shard_id]],
            metric=metric,
            stats=partition.stats[shard_id],
            arity=arity,
            seed=seed,
        )
        for shard_id in range(n_shards)
    ]
    return Router(
        shards,
        metric,
        hedge_delay_s=hedge_delay_s,
        shard_timeout_s=shard_timeout_s,
        min_completeness=min_completeness,
        prune=prune,
        seed=seed,
    )
