"""Durable streaming ingest: the crash-safe write path.

PR 1–8 hardened the *read* path (checksums, fsck, quarantine, sharding,
self-healing); this package hardens growth itself.  It pairs an
append-only CRC32-framed write-ahead log
(:mod:`~repro.ingest.wal`) with an :class:`IngestService` that applies
acknowledged inserts to clones of the live M-tree and publishes each
result as an immutable, epoch-pinned :class:`TreeView` — so queries are
snapshot-isolated while the index grows, and `recover()` replays the
log idempotently after any crash.  See ``docs/robustness.md`` for the
ingest fault matrix and ``python -m repro ingest-bench``
(:func:`repro.experiments.run_ingest_rate`) for the measured insert
rate per fsync policy, checkpoint and recovery times.
"""

from .service import (
    CHECKPOINT_FORMAT,
    ApplyOutcome,
    CheckpointOutcome,
    IngestAck,
    IngestRecovery,
    IngestService,
    TreeView,
)
from .wal import (
    FSYNC_POLICIES,
    WAL_MAGIC,
    WalDamage,
    WalRecord,
    WalReport,
    WalWriter,
    decode_record,
    encode_record,
    quarantine_debris,
    read_wal,
)

__all__ = [
    "WAL_MAGIC",
    "FSYNC_POLICIES",
    "WalRecord",
    "WalDamage",
    "WalReport",
    "WalWriter",
    "encode_record",
    "decode_record",
    "read_wal",
    "quarantine_debris",
    "CHECKPOINT_FORMAT",
    "TreeView",
    "IngestAck",
    "ApplyOutcome",
    "CheckpointOutcome",
    "IngestRecovery",
    "IngestService",
]
