"""Deterministic fault injection for the storage layer.

Pestov's lower-bound results (arXiv:0812.0146) show metric indexes degrade
sharply in adverse *data* regimes; a production deployment must also
survive adverse *operational* regimes — flaky devices, torn writes, silent
bit rot.  This module makes those regimes reproducible: a seedable
:class:`FaultPolicy` decides, draw by draw, whether the next page access
fails, and :class:`FaultyPageStore` applies the policy to any
:class:`~repro.storage.PageStore`-shaped store.

With every rate at ``0.0`` the wrapper is a transparent pass-through:
identical payloads, identical accounting — which is what the test suite
asserts, so chaos machinery can stay permanently wired into benches.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..exceptions import (
    DeadlineExceededError,
    InvalidParameterError,
    IOFaultError,
    OperationCancelledError,
)
from ..mtree.entries import LeafEntry, RoutingEntry
from ..observability import state as _obs
from ..storage.pager import PageStore

__all__ = [
    "FaultPolicy",
    "FaultStats",
    "FaultyPageStore",
    "TornPage",
    "CorruptedPayload",
    "StructuralFaultInjector",
    "ShardChaos",
    "ShardFaultInjector",
    "WalFaultInjector",
]


@dataclass
class FaultStats:
    """How many faults a policy actually injected."""

    reads: int = 0
    writes: int = 0
    read_faults: int = 0
    write_faults: int = 0
    torn_writes: int = 0
    corruptions: int = 0


class TornPage:
    """Payload left behind by a torn (partially persisted) write."""

    def __init__(self, prefix: Any):
        self.prefix = prefix

    def __repr__(self) -> str:
        return f"TornPage(prefix={self.prefix!r})"


class CorruptedPayload:
    """Opaque stand-in for a payload whose type cannot be bit-flipped."""

    def __init__(self, original: Any):
        self.original = original

    def __repr__(self) -> str:
        return f"CorruptedPayload({self.original!r})"


class FaultPolicy:
    """Seedable Bernoulli fault source with independent per-kind rates.

    Rates are probabilities in ``[0, 1]``:

    * ``read_fail_rate`` — a read raises :class:`IOFaultError` before any
      data is returned (a device error);
    * ``write_fail_rate`` — a write or allocation raises
      :class:`IOFaultError` and leaves the store unchanged;
    * ``torn_write_rate`` — a write "succeeds" but persists only a prefix
      of the payload (:class:`TornPage`), the classic crash-mid-write;
    * ``corrupt_rate`` — a read returns silently corrupted data (one
      element/bit perturbed) instead of failing loudly.

    A zero rate never consumes randomness, so the draw sequence — and
    hence the exact fault schedule — depends only on the seed and the
    non-zero rates.  ``clone()`` returns a fresh policy with the original
    seed, for replaying a schedule.
    """

    def __init__(
        self,
        read_fail_rate: float = 0.0,
        write_fail_rate: float = 0.0,
        torn_write_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        seed: Optional[int] = None,
    ):
        for name, rate in (
            ("read_fail_rate", read_fail_rate),
            ("write_fail_rate", write_fail_rate),
            ("torn_write_rate", torn_write_rate),
            ("corrupt_rate", corrupt_rate),
        ):
            if not (0.0 <= rate <= 1.0):
                raise InvalidParameterError(
                    f"{name} must lie in [0, 1], got {rate}"
                )
        self.read_fail_rate = read_fail_rate
        self.write_fail_rate = write_fail_rate
        self.torn_write_rate = torn_write_rate
        self.corrupt_rate = corrupt_rate
        self.seed = seed
        self._rng = random.Random(seed)

    def clone(self) -> "FaultPolicy":
        """Fresh policy with the same rates and the same seed."""
        return FaultPolicy(
            self.read_fail_rate,
            self.write_fail_rate,
            self.torn_write_rate,
            self.corrupt_rate,
            self.seed,
        )

    def _draw(self, rate: float) -> bool:
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return self._rng.random() < rate

    def next_read_fails(self) -> bool:
        return self._draw(self.read_fail_rate)

    def next_write_fails(self) -> bool:
        return self._draw(self.write_fail_rate)

    def next_write_tears(self) -> bool:
        return self._draw(self.torn_write_rate)

    def next_read_corrupts(self) -> bool:
        return self._draw(self.corrupt_rate)

    def corrupt(self, payload: Any) -> Any:
        """A silently corrupted copy of ``payload`` (original untouched)."""
        return _corrupt(payload, self._rng)

    def tear(self, payload: Any) -> TornPage:
        """The torn-write remnant of ``payload``."""
        try:
            prefix = payload[: max(0, len(payload) // 2)]
        except TypeError:
            prefix = None
        return TornPage(prefix)

    def __repr__(self) -> str:
        return (
            f"FaultPolicy(read_fail_rate={self.read_fail_rate}, "
            f"write_fail_rate={self.write_fail_rate}, "
            f"torn_write_rate={self.torn_write_rate}, "
            f"corrupt_rate={self.corrupt_rate}, seed={self.seed})"
        )


def _corrupt(payload: Any, rng: random.Random) -> Any:
    """One-element / one-bit perturbation of a payload copy."""
    import numpy as np

    if isinstance(payload, np.ndarray) and payload.size:
        flat = payload.copy().reshape(-1)
        idx = rng.randrange(flat.size)
        flat[idx] = -flat[idx] - 1
        return flat.reshape(payload.shape)
    if isinstance(payload, (bytes, bytearray)) and len(payload):
        idx = rng.randrange(len(payload))
        mutated = bytearray(payload)
        mutated[idx] ^= 1 << rng.randrange(8)
        return bytes(mutated) if isinstance(payload, bytes) else mutated
    if isinstance(payload, str) and payload:
        idx = rng.randrange(len(payload))
        flipped = chr((ord(payload[idx]) ^ 1) & 0x10FFFF) or "?"
        return payload[:idx] + flipped + payload[idx + 1 :]
    if isinstance(payload, bool):
        return not payload
    if isinstance(payload, int):
        return payload ^ 1
    if isinstance(payload, float):
        return -payload - 1.0
    if isinstance(payload, (list, tuple)) and len(payload):
        idx = rng.randrange(len(payload))
        items = list(payload)
        items[idx] = _corrupt(items[idx], rng)
        return type(payload)(items) if isinstance(payload, tuple) else items
    if isinstance(payload, dict) and payload:
        key = rng.choice(sorted(payload, key=repr))
        mutated = dict(payload)
        mutated[key] = _corrupt(mutated[key], rng)
        return mutated
    return CorruptedPayload(payload)


class FaultyPageStore:
    """A :class:`~repro.storage.PageStore` front that injects faults.

    Mirrors the ``PageStore`` API exactly, so it can substitute anywhere a
    page store is expected (including under a
    :class:`~repro.reliability.RetryingPageStore`).  Injected read faults
    fire *before* the inner store is touched — a device error returns no
    data and costs no logical read — while corruption happens *after* a
    successful read, so accounting matches the fault-free store.
    """

    def __init__(self, inner: PageStore, policy: FaultPolicy):
        self.inner = inner
        self.policy = policy
        self.fault_stats = FaultStats()

    # -- delegated surface -------------------------------------------------

    @property
    def page_size_bytes(self) -> int:
        return self.inner.page_size_bytes

    @property
    def buffer_pages(self) -> int:
        return self.inner.buffer_pages

    @property
    def stats(self):
        return self.inner.stats

    def __len__(self) -> int:
        return len(self.inner)

    def page_ids(self) -> list:
        return self.inner.page_ids()

    def reset_stats(self) -> None:
        self.inner.reset_stats()
        self.fault_stats = FaultStats()

    # -- faulting operations ----------------------------------------------

    @staticmethod
    def _count_fault(kind: str) -> None:
        """Mirror an injected fault into the metrics registry."""
        if _obs.registry is not None:
            _obs.registry.inc("reliability.faults_injected", kind=kind)

    def allocate(self, payload: Any) -> int:
        self.fault_stats.writes += 1
        if self.policy.next_write_fails():
            self.fault_stats.write_faults += 1
            self._count_fault("write")
            raise IOFaultError("injected write fault during page allocation")
        if self.policy.next_write_tears():
            self.fault_stats.torn_writes += 1
            self._count_fault("torn_write")
            return self.inner.allocate(self.policy.tear(payload))
        return self.inner.allocate(payload)

    def write(self, page_id: int, payload: Any) -> None:
        self.fault_stats.writes += 1
        if self.policy.next_write_fails():
            self.fault_stats.write_faults += 1
            self._count_fault("write")
            raise IOFaultError(f"injected write fault on page {page_id}")
        if self.policy.next_write_tears():
            self.fault_stats.torn_writes += 1
            self._count_fault("torn_write")
            self.inner.write(page_id, self.policy.tear(payload))
            return
        self.inner.write(page_id, payload)

    def read(self, page_id: int) -> Any:
        self.fault_stats.reads += 1
        if self.policy.next_read_fails():
            self.fault_stats.read_faults += 1
            self._count_fault("read")
            raise IOFaultError(f"injected read fault on page {page_id}")
        payload = self.inner.read(page_id)
        if self.policy.next_read_corrupts():
            self.fault_stats.corruptions += 1
            self._count_fault("corruption")
            return self.policy.corrupt(payload)
        return payload


class StructuralFaultInjector:
    """Deterministically damage the *geometry* of an in-memory index.

    :class:`FaultPolicy` perturbs bytes; this injector perturbs
    *semantics* — the structural invariants that
    :mod:`repro.reliability.fsck` exists to verify.  Every method mutates
    the tree in place and returns a record (``kind`` + location detail)
    describing exactly what was damaged, so chaos tests can assert the
    fsck finds precisely the injected faults.

    Injections are calibrated to be *detectable by construction*: a
    shrunk radius is set strictly below the subtree's true maximum
    descendant distance, a skewed parent distance is moved by far more
    than the fsck tolerance, a dropped entry leaves the stored object
    count stale.  The acceptance bar — fsck detects 100% of injected
    corruption — is only meaningful if the injector cannot inject an
    undetectable fault.
    """

    def __init__(self, seed: Optional[int] = 0):
        self.seed = seed
        self._rng = random.Random(seed)

    # -- M-tree ------------------------------------------------------------
    # Walks dispatch on entry type, so a damaged tree can be damaged more.

    @staticmethod
    def _routing_entries(tree: Any):
        """All ``(node, entry)`` routing pairs of an M-tree."""
        return [
            (node, entry)
            for node in tree.iter_nodes()
            for entry in node.entries
            if isinstance(entry, RoutingEntry)
        ]

    @staticmethod
    def _max_descendant_distance(tree: Any, entry: Any) -> float:
        """True covering requirement: max distance from the routing object
        to any leaf object below it."""
        best = 0.0
        stack = [entry.child]
        while stack:
            node = stack.pop()
            for below in node.entries:
                if isinstance(below, RoutingEntry):
                    stack.append(below.child)
                else:
                    best = max(
                        best, tree.metric.distance(below.obj, entry.obj)
                    )
        return best

    def shrink_radius(self, tree: Any) -> dict:
        """Shrink one covering radius below its subtree's true extent.

        The new radius is half the maximum descendant distance, so at
        least one object provably escapes the ball — fsck must flag a
        ``radius_violation``.
        """
        candidates = [
            (node, entry, self._max_descendant_distance(tree, entry))
            for node, entry in self._routing_entries(tree)
        ]
        candidates = [c for c in candidates if c[2] > 0.0]
        if not candidates:
            raise InvalidParameterError(
                "no routing entry with a positive subtree extent to shrink"
            )
        node, entry, max_dist = self._rng.choice(candidates)
        old_radius = entry.radius
        node.set_radius(entry, max_dist * 0.5)
        return {
            "kind": "radius_violation",
            "node_id": id(node),
            "old_radius": old_radius,
            "new_radius": entry.radius,
            "max_descendant_distance": max_dist,
        }

    def skew_parent_distance(self, tree: Any) -> dict:
        """Corrupt one stored ``d(O, P(O))`` far beyond the fsck tolerance
        (guaranteeing a ``parent_distance_skew`` finding)."""
        victims = [
            (entry.child, child_entry)
            for _node, entry in self._routing_entries(tree)
            for child_entry in entry.child.entries
        ]
        if not victims:
            raise InvalidParameterError(
                "tree has no non-root node whose parent distance can skew"
            )
        node, entry = self._rng.choice(victims)
        old = entry.dist_to_parent
        node.set_parent_distance(entry, old + 0.5 * (1.0 + old))
        return {
            "kind": "parent_distance_skew",
            "node_id": id(node),
            "old_dist": old,
            "new_dist": entry.dist_to_parent,
        }

    def drop_entry(self, tree: Any) -> dict:
        """Silently remove one leaf entry without fixing the accounting.

        The stored object count goes stale — exactly the
        ``object_count_mismatch`` a lost entry produces in the wild.
        """
        leaves = []
        for node in tree.iter_nodes():
            entries = [e for e in node.entries if isinstance(e, LeafEntry)]
            if len(entries) >= 2:
                leaves.append((node, entries))
        if not leaves:
            raise InvalidParameterError(
                "no leaf with >= 2 entries to drop from"
            )
        node, entries = self._rng.choice(leaves)
        entry = self._rng.choice(entries)
        node.remove(entry)
        tree._invalidate_caches()
        return {
            "kind": "object_count_mismatch",
            "node_id": id(node),
            "dropped_oid": entry.oid,
        }

    # -- vp-tree -----------------------------------------------------------

    def shrink_cutoff(self, tree: Any) -> dict:
        """Shrink one vp-tree cutoff below its shell's true extent,
        guaranteeing a ``cutoff_violation`` (or ``cutoffs_unsorted``)."""
        candidates = []
        stack = [tree.root] if tree.root is not None else []
        while stack:
            node = stack.pop()
            previous_cut = 0.0
            for pos, (cut, child) in enumerate(
                zip(node.cutoffs, node.children)
            ):
                if child is not None:
                    max_dist = 0.0
                    sub = [child]
                    while sub:
                        current = sub.pop()
                        max_dist = max(
                            max_dist,
                            tree.metric.distance(node.obj, current.obj),
                        )
                        sub.extend(
                            c for c in current.children if c is not None
                        )
                    if max_dist > previous_cut:
                        candidates.append((node, pos, previous_cut, max_dist))
                    stack.append(child)
                previous_cut = cut
        if not candidates:
            raise InvalidParameterError(
                "no vp-tree cutoff with a positive shell extent to shrink"
            )
        node, pos, previous_cut, max_dist = self._rng.choice(candidates)
        old = node.cutoffs[pos]
        node.cutoffs[pos] = previous_cut + 0.5 * (max_dist - previous_cut)
        return {
            "kind": "cutoff_violation",
            "node_id": id(node),
            "position": pos,
            "old_cutoff": old,
            "new_cutoff": node.cutoffs[pos],
        }

    # -- page graph --------------------------------------------------------

    def inject_orphan_page(self, store: Any) -> dict:
        """Allocate a page no parent references (an ``orphan_page``)."""
        page_id = store.allocate(
            {"is_leaf": True, "n_entries": 0, "children": []}
        )
        return {"kind": "orphan_page", "page_id": page_id}

    def _internal_pages(self, store: Any):
        pages = []
        for page_id in store.page_ids():
            try:
                payload = store.read(page_id)
            except (DeadlineExceededError, OperationCancelledError):
                raise
            except Exception:  # noqa: BLE001 — damaged pages are skipped
                continue
            if isinstance(payload, dict) and payload.get("children"):
                pages.append((page_id, payload))
        return pages

    def inject_dangling_ref(self, store: Any) -> dict:
        """Point one internal page at a child id that does not exist
        (a ``dangling_page_ref``)."""
        pages = self._internal_pages(store)
        if not pages:
            raise InvalidParameterError("no internal page to damage")
        page_id, payload = self._rng.choice(pages)
        bogus = max(store.page_ids()) + 1 + self._rng.randrange(1000)
        payload = dict(payload)
        payload["children"] = list(payload["children"]) + [bogus]
        store.write(page_id, payload)
        return {
            "kind": "dangling_page_ref",
            "page_id": page_id,
            "bogus_child": bogus,
        }

    def inject_page_alias(self, store: Any) -> dict:
        """Reference one child from two slots (a
        ``doubly_referenced_page``)."""
        pages = self._internal_pages(store)
        if not pages:
            raise InvalidParameterError("no internal page to damage")
        page_id, payload = self._rng.choice(pages)
        victim = self._rng.choice(payload["children"])
        payload = dict(payload)
        payload["children"] = list(payload["children"]) + [victim]
        store.write(page_id, payload)
        return {
            "kind": "doubly_referenced_page",
            "page_id": page_id,
            "aliased_child": victim,
        }


class ShardChaos:
    """Thread-safe per-shard chaos switch: healthy, dead, or slow.

    A cluster shard consults its chaos switch on every query.  ``dead``
    makes the shard raise :class:`IOFaultError` (the whole-machine
    failure: the router quarantines the shard as ``unreachable``); ``slow`` delays execution by ``delay_s`` (the straggler
    regime hedged reads exist for).  By default a slow shard only slows
    *primary* attempts — modelling a transient per-request stall (GC
    pause, queue spike) where a duplicate request takes a fresh, fast
    path — so hedges deterministically win; set ``slow_hedged=True`` for
    a machine-level slowdown that hits hedges too.

    The switch is flipped by a chaos driver thread while query workers
    read it, so all access goes through the lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._mode: Optional[str] = None
        self._delay_s = 0.0
        self._slow_hedged = False

    def kill(self) -> None:
        """Every subsequent query on this shard fails with an I/O fault."""
        with self._lock:
            self._mode = "dead"

    def slow(self, delay_s: float, slow_hedged: bool = False) -> None:
        """Every subsequent query on this shard stalls for ``delay_s``."""
        if delay_s < 0:
            raise InvalidParameterError(
                f"delay_s must be >= 0, got {delay_s}"
            )
        with self._lock:
            self._mode = "slow"
            self._delay_s = delay_s
            self._slow_hedged = slow_hedged

    def heal(self) -> None:
        """Back to healthy: no injected failures or stalls."""
        with self._lock:
            self._mode = None
            self._delay_s = 0.0
            self._slow_hedged = False

    def snapshot(self) -> Tuple[Optional[str], float, bool]:
        """Consistent ``(mode, delay_s, slow_hedged)`` view for one query."""
        with self._lock:
            return self._mode, self._delay_s, self._slow_hedged

    @property
    def mode(self) -> Optional[str]:
        with self._lock:
            return self._mode

    def __repr__(self) -> str:
        mode, delay_s, slow_hedged = self.snapshot()
        return (
            f"ShardChaos(mode={mode!r}, delay_s={delay_s}, "
            f"slow_hedged={slow_hedged})"
        )


class ShardFaultInjector:
    """Shard-level chaos for a cluster: kill, slow, corrupt, heal.

    Operates on anything shard-shaped — an object with a ``shard_id``,
    a ``chaos`` :class:`ShardChaos` switch, and (for ``corrupt``) a
    ``tree`` attribute holding a vp-tree.  ``kill``/``slow`` flip the
    chaos switch; ``corrupt`` delegates to
    :class:`StructuralFaultInjector.shrink_cutoff` so the damage is
    *detectable by construction* (the shard's fsck must flag it).  Every
    method returns a record describing exactly what was injected, so
    chaos drills can assert detection and recovery against ground truth.
    """

    def __init__(self, seed: Optional[int] = 0):
        self.seed = seed
        self._structural = StructuralFaultInjector(seed=seed)

    @staticmethod
    def _record(shard: Any, kind: str, **detail: Any) -> dict:
        record = {"kind": kind, "shard_id": shard.shard_id}
        record.update(detail)
        if _obs.registry is not None:
            _obs.registry.inc(
                "reliability.shard_faults_injected",
                kind=kind,
                shard=str(shard.shard_id),
            )
        return record

    def kill(self, shard: Any) -> dict:
        """Dead shard: every query raises :class:`IOFaultError`."""
        shard.chaos.kill()
        return self._record(shard, "shard_dead")

    def slow(
        self, shard: Any, delay_s: float, slow_hedged: bool = False
    ) -> dict:
        """Straggler shard: every (primary) query stalls for ``delay_s``."""
        shard.chaos.slow(delay_s, slow_hedged=slow_hedged)
        return self._record(
            shard, "shard_slow", delay_s=delay_s, slow_hedged=slow_hedged
        )

    def corrupt(self, shard: Any) -> dict:
        """Structurally damage the shard's index (fsck-detectable)."""
        detail = self._structural.shrink_cutoff(shard.tree)
        return self._record(shard, "shard_corrupt", structural=detail)

    def heal(self, shard: Any) -> dict:
        """Lift any injected chaos on the shard (structure stays damaged)."""
        shard.chaos.heal()
        return self._record(shard, "shard_healed")


class WalFaultInjector:
    """Deterministic byte-level damage to on-disk WAL segments.

    The hostile-artifact counterpart of :class:`FaultPolicy` for the
    ingest write-ahead log (:mod:`repro.ingest.wal`): every method edits
    segment files in place, at explicit offsets, so chaos drills and
    tests replay the exact same damage every run.  Methods return the
    name of the segment they damaged.
    """

    def __init__(self, directory: Any):
        from pathlib import Path

        self.directory = Path(directory)

    def _segments(self) -> list:
        found = [
            path
            for path in self.directory.iterdir()
            if path.name.startswith("wal-") and path.name.endswith(".log")
        ]
        if not found:
            raise InvalidParameterError(
                f"no WAL segments under {self.directory}"
            )
        return sorted(found)

    def _record_lines(self) -> list:
        """Every complete record as ``(path, start_offset, line_bytes)``."""
        out = []
        for path in self._segments():
            data = path.read_bytes()
            offset = 0
            while True:
                newline = data.find(b"\n", offset)
                if newline < 0:
                    break
                out.append((path, offset, data[offset:newline]))
                offset = newline + 1
        if not out:
            raise InvalidParameterError("WAL holds no complete record")
        return out

    def tear_tail(self, drop_bytes: int = 7) -> str:
        """Crash-mid-append: drop the final bytes of the last segment.

        Leaves the last record truncated without its newline — the
        benign torn-tail signature recovery must absorb.
        """
        if drop_bytes < 1:
            raise InvalidParameterError(
                f"drop_bytes must be >= 1, got {drop_bytes}"
            )
        path = self._segments()[-1]
        data = path.read_bytes()
        if len(data) <= drop_bytes:
            raise InvalidParameterError(
                f"segment {path.name} has only {len(data)} byte(s)"
            )
        path.write_bytes(data[:-drop_bytes])
        if _obs.registry is not None:
            _obs.registry.inc(
                "reliability.wal_faults_injected", kind="torn_tail"
            )
        return path.name

    def truncate_segment(self, keep_records: int = 0) -> str:
        """Cut the last segment down to its first ``keep_records`` records
        (newline intact — mid-log truncation, *not* a benign torn tail
        unless it is the final segment's tail)."""
        if keep_records < 0:
            raise InvalidParameterError(
                f"keep_records must be >= 0, got {keep_records}"
            )
        path = self._segments()[-1]
        data = path.read_bytes()
        offset = 0
        for _ in range(keep_records):
            newline = data.find(b"\n", offset)
            if newline < 0:
                raise InvalidParameterError(
                    f"segment {path.name} has fewer than "
                    f"{keep_records} record(s)"
                )
            offset = newline + 1
        path.write_bytes(data[:offset])
        if _obs.registry is not None:
            _obs.registry.inc(
                "reliability.wal_faults_injected", kind="truncated_segment"
            )
        return path.name

    def flip_bit(self, record: int = 0, bit: int = 1) -> str:
        """Flip one bit inside the body of the ``record``-th record
        (log order, negative indexes from the end) — silent bit rot the
        CRC frame must catch."""
        lines = self._record_lines()
        path, offset, line = lines[record]
        # The body starts after the 4th space (magic seq len crc body).
        spaces = 0
        body_at = 0
        for pos, byte in enumerate(line):
            if byte == 0x20:
                spaces += 1
                if spaces == 4:
                    body_at = pos + 1
                    break
        if spaces < 4 or body_at >= len(line):
            raise InvalidParameterError(
                f"record {record} in {path.name} has no body to damage"
            )
        data = bytearray(path.read_bytes())
        target = offset + body_at
        data[target] ^= 1 << (bit % 8)
        path.write_bytes(bytes(data))
        if _obs.registry is not None:
            _obs.registry.inc(
                "reliability.wal_faults_injected", kind="bit_flip"
            )
        return path.name

    def duplicate_record(self, record: int = -1) -> str:
        """Re-append a byte-identical copy of an existing record to the
        last segment — the duplicate-sequence shape idempotent replay
        must skip."""
        lines = self._record_lines()
        _src, _offset, line = lines[record]
        path = self._segments()[-1]
        with open(path, "ab") as fh:
            fh.write(line + b"\n")
        if _obs.registry is not None:
            _obs.registry.inc(
                "reliability.wal_faults_injected", kind="duplicate_record"
            )
        return path.name
