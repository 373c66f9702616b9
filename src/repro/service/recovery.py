"""Crash-consistent multi-file persistence via a write-ahead manifest.

PR 1 made *single* artifacts atomic (temp + fsync + ``os.replace``), but
an index bundle is several files — tree, distance histogram, statistics —
and a crash between two of their replaces leaves a *mixed* generation: a
new tree with an old histogram silently skews every cost estimate.  This
module closes that gap with generations and a write-ahead journal:

1. **journal** — write ``JOURNAL.json`` declaring the new generation
   number and the artifact names about to be written (atomic);
2. **artifacts** — write each artifact to its own generation-suffixed
   file ``{name}.g{gen}.json`` (atomic each; never overwrites the
   previous generation's files);
3. **commit** — atomically replace ``MANIFEST.json`` (format
   ``metricost-manifest-v1``) to point at the new generation's files,
   with per-file SHA-256 digests.  *This replace is the commit point*;
4. **cleanup** — remove the journal, then garbage-collect the previous
   generation's files.

A crash at any byte offset of any step leaves the store loadable:
before the commit point :meth:`GenerationStore.load` still reads the old
generation in full; after it, the new one.  :meth:`GenerationStore.recover`
rolls an interrupted save forward (journal + committed manifest) or back
(journal, no commit), and sweeps stray temp files and any generation
file the committed manifest does not own.

``save(crash_after_step=k)`` injects a :class:`SimulatedCrashError` after
the k-th step, so tests and ``python -m repro doctor`` can kill the
protocol at *every* step and assert the old-or-new-never-mixed property.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..exceptions import (
    CorruptedDataError,
    FormatVersionError,
    InvalidParameterError,
    MetricostError,
)
from ..persistence import _atomic_write_text

__all__ = [
    "MANIFEST_FORMAT",
    "SimulatedCrashError",
    "RecoveryPerformed",
    "GenerationStore",
]

MANIFEST_FORMAT = "metricost-manifest-v1"
MANIFEST_NAME = "MANIFEST.json"
JOURNAL_NAME = "JOURNAL.json"

PathLike = Union[str, Path]


class SimulatedCrashError(MetricostError):
    """Raised by ``save(crash_after_step=k)`` to emulate a hard kill.

    ``step`` records how many protocol steps completed before the
    "crash"; everything already written stays on disk exactly as a real
    kill would leave it.
    """

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


@dataclass
class RecoveryPerformed:
    """What :meth:`GenerationStore.recover` found and did."""

    action: str  # "clean" | "rolled_forward" | "rolled_back"
    generation: Optional[int]  # the generation now current (None if never saved)
    notes: List[str] = field(default_factory=list)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class GenerationStore:
    """A directory of generation-suffixed artifacts behind one manifest.

    Artifacts are named text documents (callers serialise trees and
    histograms with :mod:`repro.persistence` first).  Not itself
    thread-safe — saves are an administrative operation; serialise them
    externally.  Loads against a *committed* manifest are safe alongside
    a concurrent save, because a save never touches the committed
    generation's files until after the new commit point.
    """

    def __init__(self, directory: PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # -- paths -------------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def journal_path(self) -> Path:
        return self.directory / JOURNAL_NAME

    def _artifact_path(self, name: str, generation: int) -> Path:
        return self.directory / f"{name}.g{generation}.json"

    # -- manifest / journal I/O -------------------------------------------

    def _read_manifest(self) -> Optional[Dict[str, Any]]:
        if not self.manifest_path.exists():
            return None
        try:
            doc = json.loads(self.manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise CorruptedDataError(
                f"manifest is not valid JSON: {exc}", offset=exc.pos
            ) from exc
        if doc.get("format") != MANIFEST_FORMAT:
            raise FormatVersionError(
                f"cannot read manifest: expected format "
                f"{MANIFEST_FORMAT!r}, found {doc.get('format')!r}"
            )
        return doc

    def _read_journal(self) -> Optional[Dict[str, Any]]:
        if not self.journal_path.exists():
            return None
        try:
            return json.loads(self.journal_path.read_text())
        except json.JSONDecodeError:
            # A torn journal write never happens (atomic replace), but a
            # hand-damaged one should not wedge recovery: treat it as an
            # uncommitted save of unknown shape and let recover() sweep.
            return {"generation": None, "artifacts": []}

    @property
    def generation(self) -> Optional[int]:
        """The committed generation number; None before the first save."""
        manifest = self._read_manifest()
        return None if manifest is None else int(manifest["generation"])

    # -- save protocol -----------------------------------------------------

    def total_save_steps(self, artifact_count: int) -> int:
        """Steps in ``save()`` for ``artifact_count`` artifacts.

        journal + one write per artifact + manifest commit + journal
        removal + old-generation GC.
        """
        return artifact_count + 4

    def save(
        self,
        artifacts: Dict[str, str],
        crash_after_step: Optional[int] = None,
    ) -> int:
        """Atomically replace the committed bundle; returns the new
        generation number.

        ``artifacts`` maps names (filename-safe stems) to serialised
        text.  ``crash_after_step=k`` performs the first ``k`` protocol
        steps and then raises :class:`SimulatedCrashError`; ``k=0``
        crashes before anything is written.
        """
        if not artifacts:
            raise InvalidParameterError("need at least one artifact to save")
        for name in artifacts:
            if not name or "/" in name or name.startswith("."):
                raise InvalidParameterError(
                    f"artifact name {name!r} is not filename-safe"
                )
        step = 0

        def checkpoint() -> None:
            nonlocal step
            step += 1
            if crash_after_step is not None and step > crash_after_step:
                raise SimulatedCrashError(
                    f"simulated crash after step {crash_after_step} "
                    f"of {self.total_save_steps(len(artifacts))}",
                    step=crash_after_step,
                )

        old_manifest = self._read_manifest()
        old_generation = (
            int(old_manifest["generation"]) if old_manifest else 0
        )
        generation = old_generation + 1
        names = sorted(artifacts)

        # Step 1: journal the intent (write-ahead).
        checkpoint()
        _atomic_write_text(
            self.journal_path,
            json.dumps(
                {
                    "format": MANIFEST_FORMAT,
                    "generation": generation,
                    "artifacts": names,
                }
            ),
        )

        # Steps 2..n+1: the artifact files, one atomic write each.
        for name in names:
            checkpoint()
            _atomic_write_text(
                self._artifact_path(name, generation), artifacts[name]
            )

        # Step n+2: the commit point.
        checkpoint()
        manifest = {
            "format": MANIFEST_FORMAT,
            "generation": generation,
            "artifacts": {
                name: {
                    "file": self._artifact_path(name, generation).name,
                    "sha256": _sha256(artifacts[name]),
                }
                for name in names
            },
        }
        _atomic_write_text(self.manifest_path, json.dumps(manifest))

        # Step n+3: the journal has served its purpose.
        checkpoint()
        self.journal_path.unlink(missing_ok=True)

        # Step n+4: GC the superseded generation's files.
        checkpoint()
        if old_manifest is not None:
            self._remove_generation_files(old_manifest)
        return generation

    def _remove_generation_files(self, manifest: Dict[str, Any]) -> None:
        for entry in manifest.get("artifacts", {}).values():
            (self.directory / entry["file"]).unlink(missing_ok=True)

    # -- load / recover ----------------------------------------------------

    def load(self) -> Dict[str, str]:
        """The committed bundle: name -> artifact text.

        Verifies each file against its manifest digest; a mismatch (or a
        missing file) raises :class:`CorruptedDataError`.  Raises
        :class:`InvalidParameterError` when no generation was ever
        committed.
        """
        manifest = self._read_manifest()
        if manifest is None:
            raise InvalidParameterError(
                f"no committed manifest in {self.directory}"
            )
        loaded: Dict[str, str] = {}
        for name, entry in manifest["artifacts"].items():
            path = self.directory / entry["file"]
            if not path.exists():
                raise CorruptedDataError(
                    f"manifest references missing artifact {entry['file']!r}"
                )
            text = path.read_text()
            if _sha256(text) != entry["sha256"]:
                raise CorruptedDataError(
                    f"artifact {entry['file']!r} does not match its "
                    f"manifest digest"
                )
            loaded[name] = text
        return loaded

    def recover(self) -> RecoveryPerformed:
        """Repair after a crash: roll an in-flight save forward or back.

        Idempotent; call on every open, never alongside a save to the
        same directory.  Rules:

        * no journal — nothing was in flight; sweep stray temp files and
          any generation file the committed manifest does not own (a
          save journals before it writes, so such a file is the
          leftover of a save killed after its journal was removed);
        * journal present, manifest already at the journaled generation —
          the commit point was passed: roll *forward* (finish cleanup);
        * journal present, manifest older/absent — the commit point was
          not reached: roll *back* (delete the partial new generation).
        """
        notes: List[str] = []
        swept = self._sweep_tmp_files()
        if swept:
            notes.append(f"removed {swept} stray temp file(s)")
        journal = self._read_journal()
        manifest = self._read_manifest()
        current = None if manifest is None else int(manifest["generation"])
        if journal is None:
            removed = self._gc_stale_files(manifest)
            if removed:
                notes.append(f"removed {removed} stale file(s)")
            return RecoveryPerformed(
                action="clean", generation=current, notes=notes
            )
        journaled = journal.get("generation")
        if journaled is not None and current == journaled:
            # Commit happened; the crash hit cleanup.  Finish it.
            self.journal_path.unlink(missing_ok=True)
            removed = self._gc_stale_files(manifest)
            notes.append(
                f"rolled forward generation {journaled}"
                + (f"; removed {removed} stale file(s)" if removed else "")
            )
            return RecoveryPerformed(
                action="rolled_forward", generation=current, notes=notes
            )
        # Commit never happened: the journaled generation is garbage.
        removed = 0
        for name in journal.get("artifacts", []):
            if journaled is None:
                continue
            path = self._artifact_path(name, journaled)
            if path.exists():
                path.unlink()
                removed += 1
        if journaled is None:
            # Unreadable journal: fall back to sweeping everything the
            # committed manifest does not own.
            removed += self._gc_stale_files(manifest)
        self.journal_path.unlink(missing_ok=True)
        notes.append(
            f"rolled back uncommitted generation {journaled}"
            + (f"; removed {removed} partial file(s)" if removed else "")
        )
        return RecoveryPerformed(
            action="rolled_back", generation=current, notes=notes
        )

    def stale_files(self) -> List[str]:
        """Read-only census of files the committed manifest does not own.

        Returns the names of generation-suffixed files (``*.g*.json``)
        outside the committed generation plus stray ``*.tmp`` files —
        exactly what :meth:`recover` would reclaim.  Used by
        ``python -m repro doctor`` / ``gc`` to *report* crash debris
        without mutating the store.
        """
        manifest = self._read_manifest()
        owned = set()
        if manifest is not None:
            owned = {
                entry["file"] for entry in manifest["artifacts"].values()
            }
        stale = [
            path.name
            for path in self.directory.glob("*.g*.json")
            if path.name not in owned
        ]
        stale.extend(path.name for path in self.directory.glob("*.tmp"))
        return sorted(stale)

    def _sweep_tmp_files(self) -> int:
        removed = 0
        for path in self.directory.glob("*.tmp"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def _gc_stale_files(self, manifest: Optional[Dict[str, Any]]) -> int:
        """Remove generation files the committed manifest does not own."""
        owned = set()
        if manifest is not None:
            owned = {
                entry["file"] for entry in manifest["artifacts"].values()
            }
        removed = 0
        for path in self.directory.glob("*.g*.json"):
            if path.name not in owned:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
