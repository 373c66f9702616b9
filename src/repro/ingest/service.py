"""Durable streaming ingest: WAL-acked inserts, snapshot-isolated reads.

The write path the paper's cost model presumes — a dynamic M-tree that
keeps growing while queries run — gets its production shape here:

* :meth:`IngestService.append` accepts a batch behind the existing
  admission/token-bucket backpressure, frames it into the
  :class:`~repro.ingest.wal.WalWriter` and acknowledges only once the
  bytes are durable (fsync policy ``always``) — an acked insert survives
  any crash;
* :meth:`IngestService.apply` folds pending records into the index — on
  a **clone** of the currently published tree, never in place — and then
  publishes the result as a new immutable :class:`TreeView` by
  compare-and-swap under a strictly increasing epoch, through the same
  :class:`~repro.service.EpochCell` that holds the cluster membership.
  The clone (:meth:`~repro.mtree.MTree.clone`) shares every node with
  the published tree and copies only the nodes on the paths the
  batch's inserts write, so a batch costs its paths, not the tree.
  Readers pin a view once and query it lock-free: no one writes a
  published tree's nodes again, so every answer is exact for exactly
  one epoch;
* :meth:`IngestService.checkpoint` commits ``{tree snapshot, WAL
  high-water mark}`` through a
  :class:`~repro.service.GenerationStore` — the manifest replace is the
  *single* commit point (kill-at-every-step safe) — then prunes WAL
  segments the snapshot covers;
* :meth:`IngestService.recover` rolls the store forward/back, loads the
  committed snapshot, quarantines WAL debris and replays the valid
  suffix idempotently: records at or below the checkpoint's high-water
  mark and duplicate sequence numbers are skipped, so a crash during
  apply or between retried appends never double-inserts.

Thread-safety: ``append``/``view``/``current_epoch``/``require_epoch``
are safe from any thread; the first of them on an unopened (or closed)
service opens it, and concurrent first callers wait for that one
recovery.  ``apply``/``checkpoint``/``recover``/``close`` are
administrative — run them from one maintenance thread, as with
:class:`~repro.cluster.ClusterLifecycle`; queries may run concurrently
with all of them.  Every publish and every WAL swap happens under the
service lock, so the view, the pending records and the WAL change
together.
"""

from __future__ import annotations

import json
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..exceptions import (
    DeadlineExceededError,
    FormatVersionError,
    InvalidParameterError,
    MetricostError,
    OperationCancelledError,
)
from ..metrics import Metric
from ..mtree import InsertFailure, MTree, NodeLayout
from ..observability import state as _obs
from ..persistence import (
    _default_decode,
    _default_encode,
    mtree_from_dict,
    mtree_to_dict,
)
from ..service.epoch import EpochCell
from ..service.recovery import GenerationStore, SimulatedCrashError
from .wal import WalWriter, quarantine_debris, read_wal

__all__ = [
    "CHECKPOINT_FORMAT",
    "TreeView",
    "IngestAck",
    "ApplyOutcome",
    "CheckpointOutcome",
    "IngestRecovery",
    "IngestService",
]

PathLike = Union[str, Path]

CHECKPOINT_FORMAT = "metricost-ingest-checkpoint-v1"
TREE_FORMAT = "metricost-ingest-tree-v2"
#: Snapshot formats :meth:`IngestService.recover` reads: the current one
#: and v1 (per-object JSON tree documents), which is no longer written.
_READABLE_TREE_FORMATS = ("metricost-ingest-tree-v1", TREE_FORMAT)


@dataclass(frozen=True)
class TreeView:
    """One immutable, epoch-pinned snapshot of the index.

    ``seq`` is the WAL high-water mark folded into ``tree``: the view
    contains exactly the objects acknowledged with sequence numbers
    ``<= seq`` (minus deterministic poison records).  Published views
    are never mutated — pin one and query it without locks.
    """

    epoch: int
    seq: int
    tree: MTree

    def __len__(self) -> int:
        return len(self.tree)


@dataclass(frozen=True)
class IngestAck:
    """Durable acknowledgement for one appended batch."""

    first_seq: int
    last_seq: int
    appended: int
    durable: bool  # False under fsync policies "batch"/"never"


@dataclass
class ApplyOutcome:
    """What one :meth:`IngestService.apply` round published."""

    epoch: int
    seq: int
    applied: int
    failures: List[InsertFailure] = field(default_factory=list)
    pending_left: int = 0


@dataclass
class CheckpointOutcome:
    """One committed snapshot + the WAL segments it released."""

    generation: int
    epoch: int
    seq: int
    segments_pruned: int


@dataclass
class IngestRecovery:
    """What :meth:`IngestService.recover` found and rebuilt."""

    store_action: str  # "clean" | "rolled_forward" | "rolled_back"
    epoch: int
    checkpoint_seq: int
    last_seq: int
    replayed: int
    duplicates_skipped: int
    replay_failures: int
    torn_tail: bool
    debris: List[str] = field(default_factory=list)
    lost_ranges: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no acknowledged insert was lost."""
        return not self.lost_ranges

    def to_dict(self) -> Dict[str, Any]:
        return {
            "store_action": self.store_action,
            "epoch": self.epoch,
            "checkpoint_seq": self.checkpoint_seq,
            "last_seq": self.last_seq,
            "replayed": self.replayed,
            "duplicates_skipped": self.duplicates_skipped,
            "replay_failures": self.replay_failures,
            "torn_tail": self.torn_tail,
            "debris": list(self.debris),
            "lost_ranges": [list(r) for r in self.lost_ranges],
            "ok": self.ok,
        }


class IngestService:
    """Crash-safe streaming inserts into a live, queryable M-tree."""

    def __init__(
        self,
        directory: PathLike,
        metric: Metric,
        layout: NodeLayout,
        *,
        split_policy: str = "mm_rad",
        segment_max_bytes: int = 1 << 20,
        fsync: str = "always",
        admission: Optional[Any] = None,
        rate_limit: Optional[Any] = None,
        encode: Callable[[Any], Any] = _default_encode,
        decode: Callable[[Any], Any] = _default_decode,
    ):
        self.directory = Path(directory)
        self.metric = metric
        self.layout = layout
        self.split_policy = split_policy
        self.segment_max_bytes = segment_max_bytes
        self.fsync_policy = fsync
        self._admission = admission
        self._rate = rate_limit
        self._encode = encode
        self._decode = decode
        self.wal_directory = self.directory / "wal"
        self.store = GenerationStore(self.directory / "snapshots")
        self._lock = threading.Lock()
        self._open_lock = threading.Lock()
        self._view: EpochCell[TreeView] = EpochCell(self._empty_view(0))
        self._pending: List[Tuple[int, Any]] = []
        self._wal: Optional[WalWriter] = None
        self.last_recovery: Optional[IngestRecovery] = None

    # -- lifecycle ---------------------------------------------------------

    def _empty_view(self, epoch: int) -> TreeView:
        """What an unopened or closed service holds: never served, since
        every read path opens the service first."""
        tree = MTree(self.metric, self.layout, split_policy=self.split_policy)
        return TreeView(epoch=epoch, seq=0, tree=tree)

    def _ensure_open(self) -> None:
        if self._wal is None:
            with self._open_lock:
                if self._wal is None:
                    self.recover()

    def recover(self) -> IngestRecovery:
        """Open (or re-open after a crash) and rebuild the live view.

        Idempotent; also the normal way to open a directory.  Replay is
        exactly-once for acknowledged inserts: the snapshot holds
        everything at or below the checkpointed high-water mark, the WAL
        valid suffix is applied once per distinct sequence number, and
        debris past the first untrusted byte is quarantined — losses
        (a vanished segment) are *reported*, never papered over.
        """
        tracer = _obs.tracer
        if tracer is not None:
            with tracer.span("ingest.recover"):
                return self._recover_impl()
        return self._recover_impl()

    def _recover_impl(self) -> IngestRecovery:
        store_action = self.store.recover().action
        checkpoint_seq = 0
        checkpoint_epoch = 0
        tree: Optional[MTree] = None
        if self.store.generation is not None:
            bundle = self.store.load()
            ckpt = json.loads(bundle["checkpoint"])
            if ckpt.get("format") != CHECKPOINT_FORMAT:
                raise FormatVersionError(
                    f"cannot read ingest checkpoint: expected format "
                    f"{CHECKPOINT_FORMAT!r}, found {ckpt.get('format')!r}"
                )
            checkpoint_seq = int(ckpt["seq"])
            checkpoint_epoch = int(ckpt["epoch"])
            tree_doc = json.loads(bundle["tree"])
            if tree_doc.get("format") not in _READABLE_TREE_FORMATS:
                raise FormatVersionError(
                    f"cannot read ingest snapshot: expected format "
                    f"{TREE_FORMAT!r} (or v1), found "
                    f"{tree_doc.get('format')!r}"
                )
            tree = mtree_from_dict(
                tree_doc["tree"], self.metric, decode=self._decode
            )
        if tree is None:
            tree = MTree(
                self.metric, self.layout, split_policy=self.split_policy
            )
        self.wal_directory.mkdir(parents=True, exist_ok=True)
        report = read_wal(self.wal_directory)
        debris = quarantine_debris(self.wal_directory, report)
        replayed = 0
        duplicates = 0
        failures = 0
        seen: set = set()
        applied_seq = checkpoint_seq
        for record in report.records:
            if record.seq <= checkpoint_seq or record.seq in seen:
                duplicates += 1
                continue
            seen.add(record.seq)
            applied_seq = max(applied_seq, record.seq)
            if record.op != "insert":
                failures += 1
                continue
            try:
                obj = self._decode(record.payload["obj"])
                tree.insert(obj, oid=record.seq - 1)
                replayed += 1
            except (DeadlineExceededError, OperationCancelledError):
                raise
            except (MetricostError, TypeError, ValueError, KeyError):
                # A poison record fails identically on every replay, so
                # skipping it keeps recovery deterministic.
                failures += 1
        lost_ranges = [
            gap for gap in report.gaps if gap[1] > checkpoint_seq
        ]
        last_seq = max(report.last_seq, checkpoint_seq)
        with self._lock:
            current = self._view.snapshot()
            epoch = checkpoint_epoch + 1
            if epoch <= current.epoch:
                epoch = current.epoch + 1
            self._view.publish(
                TreeView(epoch=epoch, seq=applied_seq, tree=tree)
            )
            self._pending = []
            old_wal = self._wal
            self._wal = WalWriter(
                self.wal_directory,
                segment_max_bytes=self.segment_max_bytes,
                fsync=self.fsync_policy,
                start_seq=last_seq + 1,
            )
        if old_wal is not None:
            old_wal.close()
        recovery = IngestRecovery(
            store_action=store_action,
            epoch=epoch,
            checkpoint_seq=checkpoint_seq,
            last_seq=last_seq,
            replayed=replayed,
            duplicates_skipped=duplicates,
            replay_failures=failures,
            torn_tail=report.torn_tail,
            debris=debris,
            lost_ranges=lost_ranges,
        )
        self.last_recovery = recovery
        reg = _obs.registry
        if reg is not None:
            reg.inc("ingest.recoveries", action=store_action)
            if replayed:
                reg.inc("ingest.replayed", replayed)
            if duplicates:
                reg.inc("ingest.duplicates_skipped", duplicates)
            reg.set_gauge("ingest.epoch", epoch)
            reg.set_gauge("ingest.applied_seq", applied_seq)
        return recovery

    def close(self) -> None:
        """Close the WAL and drop the tree (pinned readers keep theirs).
        The next read or write reopens the service through
        :meth:`recover`."""
        with self._lock:
            wal = self._wal
            self._wal = None
            self._pending = []
            self._view.publish(
                self._empty_view(self._view.snapshot().epoch + 1)
            )
        if wal is not None:
            wal.close()

    # -- write path --------------------------------------------------------

    def append(
        self, objects: Iterable[Any], deadline: Optional[Any] = None
    ) -> IngestAck:
        """Accept a batch: backpressure, WAL-frame, fsync, acknowledge.

        Under fsync policy ``always`` the returned ack is durable — the
        batch survives any crash from here on, whether or not it was
        ever applied.  ``deadline`` is checked before any work (an
        over-budget producer sheds load instead of half-writing).
        Raises :class:`~repro.exceptions.OverloadError` when admission
        or the rate limit rejects the batch.
        """
        self._ensure_open()
        batch = list(objects)
        if not batch:
            raise InvalidParameterError("need at least one object to append")
        if deadline is not None:
            deadline.check("ingest append")
        if self._rate is not None:
            self._rate.take_or_raise(len(batch))
        gate = (
            self._admission.admit()
            if self._admission is not None
            else nullcontext()
        )
        tracer = _obs.tracer
        span = (
            tracer.span("ingest.append", n=len(batch))
            if tracer is not None
            else nullcontext()
        )
        with span, gate:
            items = [
                ("insert", {"obj": self._encode(obj)}) for obj in batch
            ]
            with self._lock:
                assert self._wal is not None
                seqs = self._wal.append_batch(items)
                for seq, obj in zip(seqs, batch):
                    self._pending.append((seq, obj))
        reg = _obs.registry
        if reg is not None:
            reg.inc("ingest.appended", len(batch))
        return IngestAck(
            first_seq=seqs[0],
            last_seq=seqs[-1],
            appended=len(seqs),
            durable=self.fsync_policy == "always",
        )

    def apply(self, max_objects: Optional[int] = None) -> ApplyOutcome:
        """Fold pending records into a fresh clone and publish it.

        Clone-then-publish is what buys snapshot isolation: the clone
        shares the published tree's nodes, and its inserts copy every
        shared node on their paths before writing it, so the published
        tree is never touched and readers pinned to it keep getting
        exact answers while this round runs.  Poison
        objects are surfaced as typed failures (their sequence numbers
        still advance the high-water mark — they fail deterministically
        on every replay too, so the histories stay convergent).
        """
        self._ensure_open()
        tracer = _obs.tracer
        span = (
            tracer.span("ingest.apply")
            if tracer is not None
            else nullcontext()
        )
        with span:
            with self._lock:
                base = self._view.snapshot()
                take = (
                    len(self._pending)
                    if max_objects is None
                    else min(max_objects, len(self._pending))
                )
                batch = self._pending[:take]
                self._pending = self._pending[take:]
                pending_left = len(self._pending)
            if not batch:
                return ApplyOutcome(
                    epoch=base.epoch,
                    seq=base.seq,
                    applied=0,
                    pending_left=pending_left,
                )
            tree = base.tree.clone()
            applied = 0
            failures: List[InsertFailure] = []
            seq = base.seq
            for index, (record_seq, obj) in enumerate(batch):
                if record_seq <= seq:
                    continue  # already folded in (an overlapping replay)
                seq = max(seq, record_seq)
                try:
                    tree.insert(obj, oid=record_seq - 1)
                    applied += 1
                except (DeadlineExceededError, OperationCancelledError):
                    raise
                except (MetricostError, TypeError, ValueError) as exc:
                    failures.append(
                        InsertFailure(
                            index=index,
                            error=str(exc),
                            kind=type(exc).__name__,
                        )
                    )
            view = self._publish(base, tree, seq)
        reg = _obs.registry
        if reg is not None:
            if applied:
                reg.inc("ingest.applied", applied)
            if failures:
                reg.inc("ingest.apply_failures", len(failures))
        return ApplyOutcome(
            epoch=view.epoch,
            seq=view.seq,
            applied=applied,
            failures=failures,
            pending_left=pending_left,
        )

    def _publish(self, base: TreeView, tree: MTree, seq: int) -> TreeView:
        """Publish ``tree`` as the view after ``base`` by compare-and-swap:
        raises :class:`~repro.exceptions.StaleEpochError`, publishing
        nothing, when ``base`` is no longer the current view."""
        with self._lock:
            view = self._view.publish(
                TreeView(epoch=base.epoch + 1, seq=seq, tree=tree),
                expect=base.epoch,
            )
        reg = _obs.registry
        if reg is not None:
            reg.set_gauge("ingest.epoch", view.epoch)
            reg.set_gauge("ingest.applied_seq", view.seq)
            reg.inc("ingest.epoch_bumps")
        return view

    # -- snapshot ----------------------------------------------------------

    def total_checkpoint_steps(self) -> int:
        """Steps in :meth:`checkpoint`, for kill-at-every-step drills:
        the generation store's save protocol for two artifacts, plus the
        trailing WAL prune."""
        return self.store.total_save_steps(2) + 1

    def checkpoint(
        self, crash_after_step: Optional[int] = None
    ) -> CheckpointOutcome:
        """Commit the published view + its WAL high-water mark.

        The two artifacts (serialised tree, checkpoint metadata) go
        through the generation store's journalled save — the manifest
        replace is the one commit point, so a crash at any step leaves
        either the previous snapshot or the new one, never a mix.  WAL
        segments fully covered by the committed mark are pruned last;
        a crash before the prune merely replays extra duplicates, which
        recovery skips.
        """
        self._ensure_open()
        # Snapshot the view *and* the WAL handle under one lock hold:
        # close()/recovery rebind self._wal, so dereferencing it later
        # through self would race the rebind (lockset-race).
        with self._lock:
            view = self._view.snapshot()
            wal = self._wal
        assert wal is not None
        tracer = _obs.tracer
        span = (
            tracer.span("ingest.checkpoint", seq=view.seq)
            if tracer is not None
            else nullcontext()
        )
        with span:
            artifacts = {
                "tree": json.dumps(
                    {
                        "format": TREE_FORMAT,
                        "tree": mtree_to_dict(view.tree, encode=self._encode),
                    }
                ),
                "checkpoint": json.dumps(
                    {
                        "format": CHECKPOINT_FORMAT,
                        "seq": view.seq,
                        "epoch": view.epoch,
                        "n_objects": len(view.tree),
                    }
                ),
            }
            generation = self.store.save(
                artifacts, crash_after_step=crash_after_step
            )
            save_steps = self.store.total_save_steps(len(artifacts))
            if (
                crash_after_step is not None
                and crash_after_step == save_steps
            ):
                raise SimulatedCrashError(
                    f"simulated crash after step {save_steps} of "
                    f"{self.total_checkpoint_steps()} (before WAL prune)",
                    step=save_steps,
                )
            pruned = wal.prune(view.seq)
        reg = _obs.registry
        if reg is not None:
            reg.inc("ingest.checkpoints")
        return CheckpointOutcome(
            generation=generation,
            epoch=view.epoch,
            seq=view.seq,
            segments_pruned=pruned,
        )

    # -- read path ---------------------------------------------------------

    def view(self) -> TreeView:
        """The current published view; pin it and query lock-free."""
        self._ensure_open()
        return self._view.snapshot()

    def current_epoch(self) -> int:
        return self.view().epoch

    def require_epoch(self, epoch: int) -> TreeView:
        """The epoch check for cached plans: returns the current view
        iff it still carries ``epoch``, else raises
        :class:`~repro.exceptions.StaleEpochError` (callers re-pin and
        retry)."""
        self._ensure_open()
        return self._view.require(epoch)

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)
