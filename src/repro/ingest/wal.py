"""Append-only, CRC32-framed write-ahead log for streaming ingest.

The dynamic M-tree insert path is memory-first: an insert mutates nodes
in place and a crash loses everything since the last snapshot.  This
module supplies the missing durability half: every accepted object is
first framed, checksummed and appended to a segment file; only after the
bytes are (per the fsync policy) on stable storage is the insert
acknowledged.  Recovery then replays the log's *valid prefix* on top of
the last crash-consistent snapshot.

Frame format — one record per line, text-armoured so segments are
greppable and the framing survives any byte-level inspection::

    MCWAL1 <seq> <len> <crc32:08x> <body>\\n

``body`` is compact JSON (no raw newlines can appear, so line framing is
unambiguous); ``len`` is the body's byte length and ``crc32`` its
checksum, following the checksummed-envelope convention of
:mod:`repro.reliability.integrity`.  Sequence numbers are assigned by
the writer and strictly monotonic within a log.

Failure semantics on read (:func:`read_wal`):

* a **torn tail** — the final record of the final segment is incomplete
  (missing newline, or fewer body bytes than declared) — is the normal
  signature of a crash mid-append: benign, the valid prefix is intact
  and the debris is quarantined;
* any **other damage** (bad magic, CRC mismatch, mid-file truncation)
  marks the log untrusted from that byte on: records *after* the damage
  are parseable but cannot be trusted to form a complete history, so
  they are counted as quarantined, never replayed;
* a **sequence gap** inside the valid prefix means a whole segment
  vanished: replay would silently skip acknowledged inserts, so the gap
  is reported as data loss instead of being papered over.

:func:`quarantine_debris` makes the on-disk state match the report:
damaged segments are moved aside to ``*.debris`` (preserved for
forensics, never re-read) and the valid prefix of the cut segment is
rewritten in place, so a fresh :class:`WalWriter` continues cleanly.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..exceptions import CorruptedDataError, InvalidParameterError
from ..observability import state as _obs
from ..persistence import _atomic_write_text, _fsync_dir

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
]

PathLike = Union[str, Path]

#: Frame magic; bumping it is a format version change.
WAL_MAGIC = b"MCWAL1"

#: ``always`` — fsync after every append (an ack means bytes on disk);
#: ``batch`` — fsync only on explicit :meth:`WalWriter.sync` (group
#: commit: the caller acks a whole batch after one sync); ``never`` —
#: rely on the OS (benchmarks and tests only; acks are not durable).
FSYNC_POLICIES = ("always", "batch", "never")

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"
_DEBRIS_SUFFIX = ".debris"


def _segment_name(index: int) -> str:
    return f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"


def _segment_index(name: str) -> Optional[int]:
    if not (
        name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)
    ):
        return None
    stem = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    return int(stem) if stem.isdigit() else None


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record."""

    seq: int
    op: str
    payload: Dict[str, Any]
    segment: str = ""
    offset: int = 0


@dataclass(frozen=True)
class WalDamage:
    """One untrusted region of the log."""

    segment: str
    offset: int
    reason: str  # bad_magic | bad_header | length_mismatch | crc_mismatch
    #             | torn_frame | sequence_gap


@dataclass
class WalReport:
    """What :func:`read_wal` found: the replayable prefix + the debris.

    ``records`` is the valid prefix in log order (duplicate sequence
    numbers are *kept* — replay deduplicates, so a crash between "write
    record" and "remember it was written" stays idempotent).
    ``torn_tail`` marks the one benign damage shape; everything in
    ``damage`` is a trust boundary.  ``cut`` is the first untrusted byte
    (segment name, offset) when any damage or torn tail was found;
    ``quarantined_records`` counts parseable records past the cut that
    were deliberately not returned.
    """

    records: List[WalRecord] = field(default_factory=list)
    segments: List[str] = field(default_factory=list)
    last_seq: int = 0
    torn_tail: bool = False
    damage: List[WalDamage] = field(default_factory=list)
    gaps: List[Tuple[int, int]] = field(default_factory=list)
    cut: Optional[Tuple[str, int]] = None
    quarantined_records: int = 0
    duplicate_seqs: int = 0

    @property
    def ok(self) -> bool:
        """True when nothing beyond a benign torn tail was found."""
        return not self.damage and not self.gaps

    def to_dict(self) -> Dict[str, Any]:
        return {
            "records": len(self.records),
            "segments": list(self.segments),
            "last_seq": self.last_seq,
            "torn_tail": self.torn_tail,
            "damage": [
                {
                    "segment": dmg.segment,
                    "offset": dmg.offset,
                    "reason": dmg.reason,
                }
                for dmg in self.damage
            ],
            "gaps": [list(gap) for gap in self.gaps],
            "quarantined_records": self.quarantined_records,
            "duplicate_seqs": self.duplicate_seqs,
            "ok": self.ok,
        }


def encode_record(seq: int, op: str, payload: Dict[str, Any]) -> bytes:
    """Frame one record (including the trailing newline)."""
    if seq < 1:
        raise InvalidParameterError(f"seq must be >= 1, got {seq}")
    if not op or any(ch.isspace() for ch in op):
        raise InvalidParameterError(f"op must be non-blank, got {op!r}")
    body = json.dumps(
        {"op": op, "payload": payload}, separators=(",", ":")
    ).encode("utf-8")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return b"%s %d %d %08x %s\n" % (WAL_MAGIC, seq, len(body), crc, body)


def decode_record(line: bytes) -> WalRecord:
    """Inverse of :func:`encode_record` (line without the newline).

    Raises :class:`~repro.exceptions.CorruptedDataError` whose message
    starts with the damage reason used by :func:`read_wal`.
    """
    parts = line.split(b" ", 3)
    if not parts or parts[0] != WAL_MAGIC:
        raise CorruptedDataError("bad_magic: frame does not start with "
                                 f"{WAL_MAGIC!r}")
    if len(parts) != 4:
        raise CorruptedDataError("bad_header: expected 4 header fields")
    rest = parts[3].split(b" ", 1)
    if len(rest) != 2:
        raise CorruptedDataError("bad_header: missing crc or body")
    try:
        seq = int(parts[1])
        length = int(parts[2])
        crc = int(rest[0], 16)
    except ValueError as exc:
        raise CorruptedDataError(f"bad_header: {exc}") from exc
    body = rest[1]
    if len(body) != length:
        raise CorruptedDataError(
            f"length_mismatch: declared {length} bytes, found {len(body)}"
        )
    if (zlib.crc32(body) & 0xFFFFFFFF) != crc:
        raise CorruptedDataError("crc_mismatch: body checksum differs")
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        # The CRC matched, so this is a *writer* bug, not bit rot — but
        # recovery must still treat it as untrusted bytes.
        raise CorruptedDataError(f"crc_mismatch: undecodable body: {exc}")
    if seq < 1:
        raise CorruptedDataError(f"bad_header: seq {seq} out of range")
    return WalRecord(seq=seq, op=doc.get("op", ""), payload=doc.get("payload", {}))


def _wal_segments(directory: Path) -> List[Path]:
    found = []
    if directory.exists():
        for path in directory.iterdir():
            if _segment_index(path.name) is not None:
                found.append(path)
    return sorted(found, key=lambda p: _segment_index(p.name))


def _count_frames(data: bytes) -> int:
    """How many newline-terminated frames (complete or not) are left."""
    if not data:
        return 0
    return data.count(b"\n") + (0 if data.endswith(b"\n") else 1)


def read_wal(directory: PathLike) -> WalReport:
    """Scan every segment and classify the log into prefix + debris.

    Never mutates the directory; pair with :func:`quarantine_debris` to
    make the on-disk state match the verdict.
    """
    directory = Path(directory)
    report = WalReport()
    segments = _wal_segments(directory)
    report.segments = [path.name for path in segments]
    reg = _obs.registry
    prev_seq = 0
    for seg_pos, path in enumerate(segments):
        data = path.read_bytes()
        last_segment = seg_pos == len(segments) - 1
        offset = 0
        while offset < len(data):
            newline = data.find(b"\n", offset)
            at_eof = newline < 0
            line = data[offset:] if at_eof else data[offset:newline]
            final_record = last_segment and (
                at_eof or newline == len(data) - 1
            )
            damage_reason: Optional[str] = None
            record: Optional[WalRecord] = None
            if at_eof:
                damage_reason = "torn_frame"
            else:
                try:
                    record = decode_record(line)
                except CorruptedDataError as exc:
                    damage_reason = str(exc).split(":", 1)[0]
            if damage_reason is not None:
                # A torn final frame is the expected crash-mid-append
                # signature; truncation can also surface as a short body
                # (length_mismatch) when the newline survived.
                benign = final_record and damage_reason in (
                    "torn_frame",
                    "length_mismatch",
                )
                report.cut = (path.name, offset)
                if benign:
                    report.torn_tail = True
                else:
                    report.damage.append(
                        WalDamage(path.name, offset, damage_reason)
                    )
                    if reg is not None:
                        reg.inc("ingest.wal_damage", reason=damage_reason)
                # Everything from the first untrusted byte on — the rest
                # of this segment and all later segments — is debris.
                tail = data[newline + 1 :] if not at_eof else b""
                report.quarantined_records += _count_frames(tail)
                for later in segments[seg_pos + 1 :]:
                    report.quarantined_records += _count_frames(
                        later.read_bytes()
                    )
                return report
            assert record is not None
            if record.seq <= prev_seq:
                report.duplicate_seqs += 1
            elif prev_seq and record.seq > prev_seq + 1:
                report.gaps.append((prev_seq + 1, record.seq - 1))
                if reg is not None:
                    reg.inc("ingest.wal_damage", reason="sequence_gap")
            report.records.append(
                WalRecord(
                    seq=record.seq,
                    op=record.op,
                    payload=record.payload,
                    segment=path.name,
                    offset=offset,
                )
            )
            prev_seq = max(prev_seq, record.seq)
            report.last_seq = prev_seq
            offset = newline + 1
    return report


def quarantine_debris(directory: PathLike, report: WalReport) -> List[str]:
    """Move untrusted bytes aside so a writer can continue cleanly.

    The cut segment is renamed to ``<name>.debris`` (kept intact for
    forensics) and its valid prefix — the bytes before the cut — is
    rewritten atomically under the original name.  Segments entirely
    past the cut become ``.debris`` wholesale.  Returns the debris file
    names created; a clean report is a no-op.
    """
    directory = Path(directory)
    if report.cut is None:
        return []
    cut_segment, cut_offset = report.cut
    debris: List[str] = []
    passed_cut = False
    for path in _wal_segments(directory):
        if path.name == cut_segment:
            passed_cut = True
            data = path.read_bytes()
            debris_path = path.with_name(path.name + _DEBRIS_SUFFIX)
            os.replace(path, debris_path)
            debris.append(debris_path.name)
            if cut_offset > 0:
                # The prefix is whole valid frames — guaranteed UTF-8.
                _atomic_write_text(path, data[:cut_offset].decode("utf-8"))
        elif passed_cut:
            debris_path = path.with_name(path.name + _DEBRIS_SUFFIX)
            os.replace(path, debris_path)
            debris.append(debris_path.name)
    _fsync_dir(directory)
    reg = _obs.registry
    if reg is not None and debris:
        reg.inc("ingest.wal_debris", len(debris))
    return debris


class WalWriter:
    """Single-writer appender with segment rotation.

    Thread-safe (one internal lock); the *caller* owns sequencing
    policy — by default sequence numbers continue from ``start_seq``.
    ``segment_max_bytes`` bounds a segment before rotation; an oversize
    single record still lands in one piece (a record never spans
    segments).
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        segment_max_bytes: int = 1 << 20,
        fsync: str = "always",
        start_seq: int = 1,
    ):
        if fsync not in FSYNC_POLICIES:
            raise InvalidParameterError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if segment_max_bytes < 256:
            raise InvalidParameterError(
                f"segment_max_bytes must be >= 256, got {segment_max_bytes}"
            )
        if start_seq < 1:
            raise InvalidParameterError(
                f"start_seq must be >= 1, got {start_seq}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_max_bytes = segment_max_bytes
        self.fsync_policy = fsync
        self._lock = threading.Lock()
        existing = _wal_segments(self.directory)
        if existing:
            tail = existing[-1]
            self._segment_index = _segment_index(tail.name)
            self._segment_bytes = tail.stat().st_size
        else:
            self._segment_index = 1
            self._segment_bytes = 0
        self._fh = open(
            self.directory / _segment_name(self._segment_index), "ab"
        )
        self._next_seq = start_seq
        self._dirty = False
        self._closed = False
        _fsync_dir(self.directory)

    # -- properties --------------------------------------------------------

    @property
    def next_seq(self) -> int:
        return self._next_seq

    @property
    def segment_name(self) -> str:
        return _segment_name(self._segment_index)

    # -- appending ---------------------------------------------------------

    def append(self, op: str, payload: Dict[str, Any]) -> int:
        """Append one record; returns its sequence number."""
        return self.append_batch([(op, payload)])[0]

    def append_batch(
        self, items: Sequence[Tuple[str, Dict[str, Any]]]
    ) -> List[int]:
        """Append a batch with one write + (policy-permitting) one fsync.

        Group commit: every record of the batch becomes durable together,
        so an acknowledgement issued after this call covers all of them.
        """
        if not items:
            raise InvalidParameterError("need at least one record to append")
        with self._lock:
            self._require_open_locked()
            seqs: List[int] = []
            chunks: List[bytes] = []
            for op, payload in items:
                seq = self._next_seq
                self._next_seq += 1
                chunks.append(encode_record(seq, op, payload))
                seqs.append(seq)
            frame = b"".join(chunks)
            if (
                self._segment_bytes > 0
                and self._segment_bytes + len(frame) > self.segment_max_bytes
            ):
                self._rotate_locked()
            self._fh.write(frame)
            self._segment_bytes += len(frame)
            self._dirty = True
            if self.fsync_policy == "always":
                self._sync_locked()
        reg = _obs.registry
        if reg is not None:
            reg.inc("ingest.wal_records", len(seqs))
            reg.inc("ingest.wal_bytes", len(frame))
        return seqs

    def sync(self) -> None:
        """Flush + fsync the current segment (``batch`` policy commit)."""
        with self._lock:
            self._require_open_locked()
            self._sync_locked()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            if self.fsync_policy != "never":
                self._sync_locked()
            else:
                self._fh.flush()
            self._fh.close()
            self._closed = True

    # -- maintenance -------------------------------------------------------

    def prune(self, upto_seq: int) -> int:
        """Delete closed segments fully covered by a checkpoint.

        A segment is reclaimable when every record in it has
        ``seq <= upto_seq`` — i.e. its effects are inside the committed
        snapshot.  The open segment is never pruned.  Returns the number
        of segments removed.
        """
        removed = 0
        with self._lock:
            self._require_open_locked()
            current = _segment_name(self._segment_index)
            for path in _wal_segments(self.directory):
                if path.name == current:
                    continue
                final_seq = self._segment_final_seq_locked(path)
                if final_seq is not None and final_seq <= upto_seq:
                    path.unlink()
                    removed += 1
            if removed:
                _fsync_dir(self.directory)
        reg = _obs.registry
        if reg is not None and removed:
            reg.inc("ingest.wal_segments_pruned", removed)
        return removed

    # -- locked helpers ----------------------------------------------------

    def _require_open_locked(self) -> None:
        if self._closed:
            raise InvalidParameterError("WAL writer is closed")

    def _sync_locked(self) -> None:
        if not self._dirty:
            return
        self._fh.flush()
        if self.fsync_policy != "never":
            os.fsync(self._fh.fileno())
        self._dirty = False

    def _rotate_locked(self) -> None:
        self._sync_locked()
        self._fh.close()
        self._segment_index += 1
        self._segment_bytes = 0
        self._fh = open(
            self.directory / _segment_name(self._segment_index), "ab"
        )
        _fsync_dir(self.directory)
        reg = _obs.registry
        if reg is not None:
            reg.inc("ingest.wal_rotations")

    @staticmethod
    def _segment_final_seq_locked(path: Path) -> Optional[int]:
        """The last record's seq in a closed segment (None if unreadable)."""
        data = path.read_bytes()
        if not data.endswith(b"\n"):
            return None
        body = data[:-1]
        start = body.rfind(b"\n") + 1
        try:
            return decode_record(body[start:]).seq
        except CorruptedDataError:
            return None

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
