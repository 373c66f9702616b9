"""Online scrubber: incremental structural verification while serving.

A foreground :func:`~repro.reliability.fsck.fsck_mtree` pass recomputes a
distance per stored object per ancestor — fine for a maintenance window,
hostile at serving time.  The :class:`Scrubber` amortises the same walk:
it snapshots the tree into self-contained
:class:`~repro.reliability.fsck.ScrubUnit` s, then verifies **one node
per step** under an optional :class:`~repro.context.Deadline` /
``Context`` budget and :class:`~repro.service.TokenBucket` rate limit.
Nodes that fail are quarantined into a
:class:`~repro.reliability.QuarantineSet` (when ``auto_quarantine`` is
on), which concurrently running queries consult to route around the
damage — see ``docs/robustness.md``.

Concurrency contract: scrubbing is read-only and safe against concurrent
*queries* (the hammer test in ``tests/service/test_degraded.py`` drives
both from many threads).  It is **not** safe against concurrent inserts
or deletes — the unit snapshot would go stale; pause mutations or
re-:meth:`Scrubber.reset` after a batch of them.

Progress is mirrored into the metrics registry
(``reliability.scrub_nodes``, ``reliability.scrub_faults``, gauge
``reliability.scrub_progress``) so an operator dashboard can watch a
scrub converge.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..exceptions import DeadlineExceededError, OperationCancelledError
from ..observability import state as _obs
from .fsck import _TREE_CHECKS, FsckReport, StructuralFault

__all__ = ["ScrubProgress", "Scrubber"]


@dataclass
class ScrubProgress:
    """Where a scrub stands: nodes verified, faults found, passes done."""

    nodes_total: int = 0
    nodes_scrubbed: int = 0
    faults_found: int = 0
    quarantined: int = 0
    passes: int = 0

    @property
    def fraction(self) -> float:
        """Fraction of the current pass completed, in ``[0, 1]``."""
        if self.nodes_total == 0:
            return 1.0
        return min(1.0, self.nodes_scrubbed / self.nodes_total)

    @property
    def complete(self) -> bool:
        """True once at least one full pass has finished."""
        return self.passes > 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (``scrub --json``)."""
        return {
            "nodes_total": self.nodes_total,
            "nodes_scrubbed": self.nodes_scrubbed,
            "faults_found": self.faults_found,
            "quarantined": self.quarantined,
            "passes": self.passes,
            "fraction": self.fraction,
            "complete": self.complete,
        }


class Scrubber:
    """Incrementally verify an index's structural invariants.

    ``tree`` is an M-tree or vp-tree (detected by duck-typing on the
    node shape).  ``rate_limit`` — a
    :class:`~repro.service.TokenBucket` — paces verification so the
    scrub never starves query threads of CPU; ``sleep`` is injectable
    so tests can pace deterministically.  With ``auto_quarantine`` (the
    default) every node that fails its unit check is added to
    ``quarantine`` immediately, shrinking the blast radius of the damage
    while the scrub is still running.

    ``on_fault`` is an optional escalation hook called (outside the
    scrubber's lock) with the list of faults each step surfaces — the
    cluster lifecycle uses it to promote node-level findings into
    router-level shard quarantine the moment they appear, without
    waiting for a pass to finish.
    """

    def __init__(
        self,
        tree: Any,
        quarantine: Optional[Any] = None,
        rate_limit: Optional[Any] = None,
        auto_quarantine: bool = True,
        tolerance: float = 1e-7,
        sleep: Callable[[float], None] = time.sleep,
        on_fault: Optional[
            Callable[[List[StructuralFault]], None]
        ] = None,
    ) -> None:
        self.tree = tree
        self.quarantine = quarantine
        self.rate_limit = rate_limit
        self.auto_quarantine = auto_quarantine
        self.tolerance = tolerance
        self.on_fault = on_fault
        self._sleep = sleep
        self._lock = threading.Lock()
        self._kind = "mtree" if hasattr(tree, "layout") else "vptree"
        self._walk, self._check, self._global_faults = _TREE_CHECKS[self._kind]
        self._units: List[Any] = []
        self._cursor = 0
        self.progress = ScrubProgress()
        self.faults: List[StructuralFault] = []
        self.reset()

    def reset(self) -> None:
        """Re-snapshot the tree and restart the current pass.

        Call after any insert/delete batch — the unit snapshot does not
        track mutations.
        """
        with self._lock:
            self._units = self._walk(self.tree)
            self._cursor = 0
            self.progress.nodes_total = len(self._units)
            self.progress.nodes_scrubbed = 0
            self._mirror()

    def _mirror(self) -> None:
        reg = _obs.registry
        if reg is not None:
            reg.set_gauge(
                "reliability.scrub_progress", self.progress.fraction
            )

    def step(self) -> List[StructuralFault]:
        """Verify the next node; returns the faults it surfaced.

        Wraps around at the end of a pass, first appending the
        whole-tree checks (balance, object count, duplicate oids) that
        no single unit can see.
        """
        with self._lock:
            if not self._units:
                self.progress.passes += 1
                return []
            unit = self._units[self._cursor]
            found = self._check(self.tree, unit, self.tolerance)
            self._cursor += 1
            self.progress.nodes_scrubbed += 1
            end_of_pass = self._cursor >= len(self._units)
            if end_of_pass:
                found = found + self._global_faults(self.tree, self._units)[0]
                self._cursor = 0
                self.progress.nodes_scrubbed = 0
                self.progress.passes += 1
            if found:
                self.faults.extend(found)
                self.progress.faults_found += len(found)
                if self.auto_quarantine and self.quarantine is not None:
                    node_faults = [f for f in found if f.node_id is not None]
                    before = len(self.quarantine)
                    for fault in node_faults:
                        # An ancestor-constraint violation names the
                        # subtree root the corrupt constraint bounds;
                        # walling off that whole subtree (rather than
                        # just the leaf where the symptom surfaced) is
                        # what keeps traversals from false-pruning it.
                        target = fault.quarantine_node
                        if target is None:
                            target = unit.node
                        self.quarantine.add(target, fault)
                    self.progress.quarantined += len(self.quarantine) - before
            self._mirror()
        reg = _obs.registry
        if reg is not None:
            reg.inc("reliability.scrub_nodes")
            if found:
                for fault in found:
                    reg.inc("reliability.scrub_faults", kind=fault.kind)
        if found and self.on_fault is not None:
            self.on_fault(found)
        return found

    def run(
        self,
        budget: Optional[Any] = None,
        max_nodes: Optional[int] = None,
        passes: int = 1,
    ) -> ScrubProgress:
        """Scrub until ``passes`` full passes complete or a limit trips.

        ``budget`` is a :class:`~repro.context.Deadline` or ``Context``;
        expiry (or cancellation) stops the scrub *cleanly* — the cursor
        is kept, so a later ``run()`` resumes where this one stopped
        rather than re-verifying from the root.  ``max_nodes`` bounds
        the number of steps.  When the ``rate_limit`` bucket is dry the
        scrubber sleeps roughly one refill interval instead of spinning.
        """
        target = self.progress.passes + passes
        steps = 0
        while self.progress.passes < target:
            if max_nodes is not None and steps >= max_nodes:
                break
            if budget is not None:
                try:
                    budget.check("scrub step")
                except (DeadlineExceededError, OperationCancelledError):
                    break
            if self.rate_limit is not None:
                while not self.rate_limit.try_take():
                    wait = min(0.05, 1.0 / max(self.rate_limit.rate, 1e-9))
                    self._sleep(wait)
                    if budget is not None and (
                        budget.expired or getattr(budget, "cancelled", False)
                    ):
                        return self.progress
            self.step()
            steps += 1
        return self.progress

    def report(self) -> FsckReport:
        """The faults found so far, as a
        :class:`~repro.reliability.FsckReport`."""
        with self._lock:
            return FsckReport(
                tree_kind=self._kind,
                nodes_checked=self.progress.passes
                * self.progress.nodes_total
                + self.progress.nodes_scrubbed,
                objects_seen=len(self.tree),
                faults=list(self.faults),
            )
