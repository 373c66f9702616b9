"""Self-healing cluster control: scrub, quarantine, repair, rebalance.

The serving layers below detect and *route around* damage; this layer
closes the loop so nobody has to run ``health_check`` by hand.  A
:class:`ClusterLifecycle` owns one background
:class:`~repro.reliability.Scrubber` per live shard (paced by a shared
:class:`~repro.service.TokenBucket` and an optional
:class:`~repro.context.Deadline` budget, so scrubbing never starves
query threads) and walks every shard up a **repair escalation ladder**:

======================  =============================================
rung                    what happens
======================  =============================================
``healthy``             scrubbers verify a node per step, queries flow
``quarantined``         a scrub/fsck fault was *promoted*: the shard's
                        node-level finding becomes a router-level
                        :class:`~repro.cluster.router.ShardQuarantine`
                        entry the instant it surfaces (``on_fault``
                        hook — no scrub pass needs to finish first)
``repairing``           :func:`~repro.reliability.repair_vptree`
                        rebuilds the index from its surviving objects;
                        success re-certifies the shard, commits a new
                        store generation, and bumps the membership
                        epoch
``rebalance``           repeated repair failure (or measured drift)
                        escalates to a crash-consistent
                        :class:`~repro.cluster.rebalance.Rebalancer`
                        run — the cost model prices the damaged layout
                        against a fresh partition and moves objects
                        only when the move pays
``folded``              damage that survives rebuild parks the shard
                        permanently on the linear-scan rung
                        (``scan_only``): honest answers at linear
                        cost, the Pestov regime where indexing the
                        slice no longer beats scanning it
======================  =============================================

Every transition is metered (``cluster.lifecycle.transitions`` with
``to=``/``trigger=`` labels, plus per-action counters) and traced, so
the full automatic ladder — scrub detects, router quarantines, repair
rebuilds, epoch bumps — is observable end to end; see
``docs/robustness.md`` for the fault matrix.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..observability import state as _obs
from ..reliability.fsck import StructuralFault, repair_vptree
from ..reliability.scrub import Scrubber
from .rebalance import (
    RebalanceOutcome,
    Rebalancer,
    plan_rebalance,
    save_cluster,
)
from .router import Router
from .shard import Shard

__all__ = ["LadderEvent", "ClusterLifecycle"]

#: Ladder states, in escalation order.
HEALTHY = "healthy"
QUARANTINED = "quarantined"
REPAIRING = "repairing"
FOLDED = "folded"


@dataclass
class LadderEvent:
    """One ladder transition: which shard moved where, and why."""

    shard_id: int
    to_state: str
    trigger: str
    epoch: int
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "to_state": self.to_state,
            "trigger": self.trigger,
            "epoch": self.epoch,
            "detail": self.detail,
        }


@dataclass
class MaintenanceReport:
    """What one :meth:`ClusterLifecycle.tick` round did."""

    scrub_steps: int = 0
    promotions: int = 0
    repairs_ok: int = 0
    repairs_failed: int = 0
    rebalanced: bool = False
    folded: List[int] = field(default_factory=list)
    epoch: int = 0
    events: List[LadderEvent] = field(default_factory=list)


class ClusterLifecycle:
    """Drives the cluster's self-healing loop around a :class:`Router`.

    ``d_plus`` is the metric-space diameter bound the pivot profiles
    were built with (needed to re-derive per-shard RDDs after a repair
    or rebalance).  ``rebalancer`` is optional: without one, repairs
    and folds still work but are not committed to disk and the
    rebalance rung is skipped.  ``scrub_rate`` is a shared
    :class:`~repro.service.TokenBucket` pacing all per-shard scrubbers.

    Thread-safety: the promotion hook (called from whatever thread runs
    a scrub step) only touches the router's own locked structures and
    this object's event log (under its lock).  ``tick``/``repair``/
    ``rebalance`` are administrative and must not run concurrently with
    each other; queries may run concurrently with everything.
    """

    def __init__(
        self,
        router: Router,
        d_plus: float,
        rebalancer: Optional[Rebalancer] = None,
        scrub_rate: Optional[Any] = None,
        max_repair_attempts: int = 1,
        rebalance_min_gain: float = 0.05,
        escalate_to_rebalance: bool = True,
        seed: int = 0,
    ) -> None:
        self.router = router
        self.d_plus = float(d_plus)
        self.rebalancer = rebalancer
        self.scrub_rate = scrub_rate
        self.max_repair_attempts = int(max_repair_attempts)
        self.rebalance_min_gain = float(rebalance_min_gain)
        self.escalate_to_rebalance = escalate_to_rebalance
        self.seed = int(seed)
        self._lock = threading.Lock()
        self.events: List[LadderEvent] = []
        self._repair_attempts: Dict[int, int] = {}
        self._rebalance_attempts: Dict[int, int] = {}
        self._scrubbers: Dict[int, Scrubber] = {}
        self._scrub_epoch: Optional[int] = None
        self._ensure_scrubbers()

    # -- state -------------------------------------------------------------

    def state(self, shard_id: int) -> str:
        """The shard's current ladder rung, derived from live state."""
        shard = self.router.membership.shards[shard_id]
        if shard.scan_only:
            return FOLDED
        if self.router.quarantine.contains(shard_id):
            return QUARANTINED
        return HEALTHY

    def states(self) -> Dict[int, str]:
        return {
            shard.shard_id: self.state(shard.shard_id)
            for shard in self.router.membership.shards
        }

    def _record(
        self, shard_id: int, to_state: str, trigger: str, detail: str = ""
    ) -> LadderEvent:
        event = LadderEvent(
            shard_id=shard_id,
            to_state=to_state,
            trigger=trigger,
            epoch=self.router.epoch,
            detail=detail,
        )
        with self._lock:
            self.events.append(event)
        reg = _obs.registry
        if reg is not None:
            reg.inc(
                "cluster.lifecycle.transitions",
                to=to_state,
                trigger=trigger,
            )
        return event

    # -- scrubbing / promotion ---------------------------------------------

    def _ensure_scrubbers(self) -> None:
        """(Re)create per-shard scrubbers when the membership moved.

        A scrubber snapshots its tree, so it must be rebuilt after any
        epoch bump (repair swap, rebalance) — stale snapshots would
        verify trees that no longer serve.  Folded shards are skipped:
        their abandoned index is no longer health-relevant.
        """
        membership = self.router.membership
        # metalint: ignore[epoch-fence] — epoch used as a cache-invalidation
        # key for the scrubber set; no query results are merged across the
        # comparison and staleness here only delays a rebuild by one tick.
        if self._scrub_epoch == membership.epoch:
            return
        scrubbers: Dict[int, Scrubber] = {}
        for shard in membership.shards:
            if shard.scan_only:
                continue
            scrubbers[shard.shard_id] = Scrubber(
                shard.tree,
                quarantine=shard.quarantine,
                rate_limit=self.scrub_rate,
                on_fault=self._promotion_hook(shard.shard_id),
            )
        self._scrubbers = scrubbers
        self._scrub_epoch = membership.epoch

    def _promotion_hook(self, shard_id: int) -> Any:
        def promote(faults: List[StructuralFault]) -> None:
            self.promote(shard_id, faults)

        return promote

    def promote(
        self, shard_id: int, faults: List[StructuralFault]
    ) -> None:
        """Scrub findings become a router-level quarantine, instantly.

        Idempotent per shard: the first structural fault walls the whole
        shard off from routing (its node-level quarantine already walls
        the damaged subtree off from local traversal); repeats only
        extend the detail trail.
        """
        kinds = sorted({fault.kind for fault in faults})
        already = self.router.quarantine.contains(shard_id)
        if not already:
            self.router.quarantine.add(shard_id, "scrub")
            self._record(
                shard_id, QUARANTINED, "scrub", detail=",".join(kinds)
            )
        reg = _obs.registry
        if reg is not None:
            reg.inc("cluster.lifecycle.scrub_promotions", new=not already)

    def scrub(
        self,
        budget: Optional[Any] = None,
        max_nodes_per_shard: Optional[int] = None,
        passes: int = 1,
    ) -> Dict[int, Any]:
        """One scrub round over every live, unquarantined shard.

        Returns per-shard :class:`~repro.reliability.ScrubProgress`.
        Promotion happens *inside* the round via ``on_fault`` — a fault
        found on the first node of a pass quarantines the shard before
        the second node is read.
        """
        self._ensure_scrubbers()
        progress: Dict[int, Any] = {}
        for shard_id, scrubber in sorted(self._scrubbers.items()):
            if self.router.quarantine.contains(shard_id):
                continue
            if scrubber.progress.nodes_scrubbed == 0:
                # Pass boundary: re-snapshot so damage that landed
                # *after* the previous snapshot (the units are
                # self-contained copies) is visible to this pass.
                scrubber.reset()
            progress[shard_id] = scrubber.run(
                budget=budget, max_nodes=max_nodes_per_shard, passes=passes
            )
        return progress

    # -- repair ------------------------------------------------------------

    def repair(self, shard_id: int, trigger: str = "quarantine") -> bool:
        """Rebuild one shard's index from its surviving objects.

        On success: the repaired tree is swapped in (node quarantines
        lifted), the router quarantine is dropped, the repaired cluster
        is committed as a new store generation (when a rebalancer is
        attached), and the membership is republished under the next
        epoch so later requests name the healed view.  Returns False when the rebuilt
        tree still fails fsck — payload-level damage repair cannot fix.
        """
        membership = self.router.membership
        shard = membership.shards[shard_id]
        self._record(shard_id, REPAIRING, trigger)
        tracer = _obs.tracer
        if tracer is not None:
            with tracer.span(
                "cluster.lifecycle.repair", shard=shard_id,
                epoch=membership.epoch,
            ):
                outcome = repair_vptree(
                    shard.tree, seed=self.seed + membership.epoch,
                    quarantine=shard.quarantine,
                )
        else:
            outcome = repair_vptree(
                shard.tree, seed=self.seed + membership.epoch,
                quarantine=shard.quarantine,
            )
        reg = _obs.registry
        if reg is not None:
            reg.inc("cluster.lifecycle.repairs", ok=outcome.ok)
        if not outcome.ok or outcome.n_lost > 0:
            self._record(
                shard_id, QUARANTINED, "repair_failed",
                detail=",".join(outcome.report.kinds()),
            )
            return False
        shard.replace_tree(outcome.tree)
        self.router.quarantine.discard(shard_id)
        # Same shard set, new epoch: every request pinned from here on
        # is stamped with the healed view's epoch.
        self.router.install_membership(
            list(membership.shards), membership.epoch + 1
        )
        if self.rebalancer is not None:
            save_cluster(
                self.router, self.rebalancer.directory, self.d_plus,
                encode=self.rebalancer.encode,
            )
        self._repair_attempts.pop(shard_id, None)
        self._record(shard_id, HEALTHY, "repaired")
        return True

    # -- fold --------------------------------------------------------------

    def fold(self, shard_id: int, trigger: str = "repair_failed") -> None:
        """Park a shard permanently on the linear-scan rung.

        The bottom of the ladder: the pristine object snapshot answers
        every query by scan (complete, honest, linear cost), the index
        is abandoned, and the router quarantine is lifted — a folded
        shard *serves*, it is not sick.
        """
        shard = self.router.membership.shards[shard_id]
        shard.fold_to_scan()
        self.router.quarantine.discard(shard_id)
        self._scrubbers.pop(shard_id, None)
        reg = _obs.registry
        if reg is not None:
            reg.inc("cluster.lifecycle.folds", trigger=trigger)
        self._record(shard_id, FOLDED, trigger)

    # -- rebalance ---------------------------------------------------------

    def rebalance(
        self, reason: str = "drift", force: bool = False
    ) -> Optional[RebalanceOutcome]:
        """Price a fresh partition; move to it when it pays (or forced).

        Returns None when no rebalancer is attached or the cost model
        says the move does not clear ``rebalance_min_gain``.
        """
        if self.rebalancer is None:
            return None
        plan = plan_rebalance(
            self.router, self.d_plus, seed=self.seed + self.router.epoch,
            reason=reason,
        )
        if not force and not plan.improves(self.rebalance_min_gain):
            return None
        tracer = _obs.tracer
        if tracer is not None:
            with tracer.span(
                "cluster.lifecycle.rebalance", reason=reason,
                epoch_from=plan.epoch_from, epoch_to=plan.epoch_to,
            ):
                outcome = self.rebalancer.execute(self.router, plan)
        else:
            outcome = self.rebalancer.execute(self.router, plan)
        self._repair_attempts.clear()
        self._rebalance_attempts.clear()
        self._ensure_scrubbers()
        for shard in self.router.membership.shards:
            self._record(shard.shard_id, HEALTHY, f"rebalance_{reason}")
        return outcome

    # -- the ladder --------------------------------------------------------

    def tick(
        self,
        budget: Optional[Any] = None,
        max_nodes_per_shard: Optional[int] = None,
        check_drift: bool = False,
    ) -> MaintenanceReport:
        """One full maintenance round: scrub, then walk the ladder.

        1. every live shard scrubs (faults promote to quarantine
           mid-round via the ``on_fault`` hook);
        2. every scrub/fsck-quarantined shard is repaired, up to
           ``max_repair_attempts`` times;
        3. a shard whose repairs are exhausted escalates to one cluster
           rebalance (when enabled and a rebalancer is attached), and
           past that folds into the linear-scan rung;
        4. with ``check_drift``, a drift-priced rebalance runs even
           with nothing quarantined.

        Breaker-quarantined shards are left to :meth:`Router.recheck` —
        a dead machine is not a damaged index, so the ladder does not
        burn a repair on it.
        """
        report = MaintenanceReport()
        before = len(self.events)
        scrubbed_before = {
            shard_id: scrubber.progress.nodes_scrubbed
            + scrubber.progress.passes * scrubber.progress.nodes_total
            for shard_id, scrubber in self._scrubbers.items()
        }
        self.scrub(budget=budget, max_nodes_per_shard=max_nodes_per_shard)
        report.scrub_steps = sum(
            scrubber.progress.nodes_scrubbed
            + scrubber.progress.passes * scrubber.progress.nodes_total
            - scrubbed_before.get(shard_id, 0)
            for shard_id, scrubber in self._scrubbers.items()
        )
        report.promotions = sum(
            1
            for event in self.events[before:]
            if event.to_state == QUARANTINED and event.trigger == "scrub"
        )
        for shard_id, reason in sorted(
            self.router.quarantine.reasons().items()
        ):
            if reason not in ("scrub", "fsck"):
                continue
            if not self.router.quarantine.contains(shard_id):
                # A rebalance earlier in this very loop replaced the
                # membership; this snapshot entry is already healed.
                continue
            attempts = self._repair_attempts.get(shard_id, 0)
            if attempts < self.max_repair_attempts:
                self._repair_attempts[shard_id] = attempts + 1
                if self.repair(shard_id, trigger=reason):
                    report.repairs_ok += 1
                    continue
                report.repairs_failed += 1
                if (
                    self._repair_attempts[shard_id]
                    < self.max_repair_attempts
                ):
                    # Budget for another rebuild on a later tick before
                    # escalating past the repair rung.
                    continue
            if (
                self.escalate_to_rebalance
                and self.rebalancer is not None
                and self._rebalance_attempts.get(shard_id, 0) < 1
            ):
                self._rebalance_attempts[shard_id] = 1
                if self.rebalance(reason="repair_failed", force=True):
                    report.rebalanced = True
                    continue
            self.fold(shard_id)
            report.folded.append(shard_id)
        if check_drift and not report.rebalanced:
            if self.rebalance(reason="drift"):
                report.rebalanced = True
        report.epoch = self.router.epoch
        report.events = self.events[before:]
        return report
