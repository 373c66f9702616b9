"""Crash-consistent recovery: the generation store's old-or-new guarantee."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import persistence
from repro.core.histogram import DistanceHistogram
from repro.exceptions import (
    CorruptedDataError,
    FormatVersionError,
    InvalidParameterError,
)
from repro.service import (
    MANIFEST_FORMAT,
    GenerationStore,
    SimulatedCrashError,
)

OLD = {"tree": "tree-old", "hist": "hist-old", "stats": "stats-old"}
NEW = {"tree": "tree-new", "hist": "hist-new", "stats": "stats-new"}


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        store = GenerationStore(tmp_path / "bundle")
        generation = store.save(OLD)
        assert generation == 1
        assert store.generation == 1
        assert store.load() == OLD

    def test_generations_increment(self, tmp_path):
        store = GenerationStore(tmp_path)
        assert store.save(OLD) == 1
        assert store.save(NEW) == 2
        assert store.load() == NEW

    def test_old_generation_files_are_collected(self, tmp_path):
        store = GenerationStore(tmp_path)
        store.save(OLD)
        store.save(NEW)
        leftovers = [p.name for p in tmp_path.glob("*.g1.json")]
        assert leftovers == []

    def test_load_before_any_save_raises(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            GenerationStore(tmp_path).load()

    def test_empty_save_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            GenerationStore(tmp_path).save({})

    def test_unsafe_artifact_names_rejected(self, tmp_path):
        store = GenerationStore(tmp_path)
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(InvalidParameterError):
                store.save({bad: "x"})

    def test_manifest_format_pinned(self, tmp_path):
        store = GenerationStore(tmp_path)
        store.save(OLD)
        manifest = json.loads(store.manifest_path.read_text())
        assert manifest["format"] == MANIFEST_FORMAT == "metricost-manifest-v1"

    def test_foreign_manifest_refused(self, tmp_path):
        store = GenerationStore(tmp_path)
        store.manifest_path.write_text(json.dumps({"format": "other-v9"}))
        with pytest.raises(FormatVersionError):
            store.load()

    def test_digest_mismatch_detected(self, tmp_path):
        store = GenerationStore(tmp_path)
        store.save(OLD)
        manifest = json.loads(store.manifest_path.read_text())
        victim = tmp_path / manifest["artifacts"]["tree"]["file"]
        victim.write_text("tampered")
        with pytest.raises(CorruptedDataError):
            store.load()

    def test_missing_artifact_detected(self, tmp_path):
        store = GenerationStore(tmp_path)
        store.save(OLD)
        manifest = json.loads(store.manifest_path.read_text())
        (tmp_path / manifest["artifacts"]["hist"]["file"]).unlink()
        with pytest.raises(CorruptedDataError):
            store.load()


class TestCrashAtEveryStep:
    def test_kill_at_every_step_never_mixes_generations(self, tmp_path):
        store = GenerationStore(tmp_path)
        store.save(OLD)
        total = store.total_save_steps(len(NEW))
        assert total == len(NEW) + 4
        outcomes = []
        for step in range(total):
            try:
                store.save(NEW, crash_after_step=step)
                raise AssertionError(f"step {step} did not crash")
            except SimulatedCrashError as exc:
                assert exc.step == step
            recovery = store.recover()
            loaded = store.load()
            assert loaded in (OLD, NEW), (
                f"mixed generation after crash at step {step}: {loaded}"
            )
            outcomes.append((recovery.action, loaded == NEW))
            store.save(OLD)  # reset the baseline
        # Early kills roll back, kills past the commit point roll forward.
        assert any(action == "rolled_back" for action, _new in outcomes)
        assert any(new for _action, new in outcomes)
        # Commit is the pivot: once a kill yields NEW, later kills do too.
        first_new = next(i for i, (_a, new) in enumerate(outcomes) if new)
        assert all(new for _a, new in outcomes[first_new:])

    def test_crash_before_anything_written(self, tmp_path):
        store = GenerationStore(tmp_path)
        store.save(OLD)
        with pytest.raises(SimulatedCrashError):
            store.save(NEW, crash_after_step=0)
        assert not store.journal_path.exists()
        assert store.recover().action == "clean"
        assert store.load() == OLD

    def test_recover_is_idempotent(self, tmp_path):
        store = GenerationStore(tmp_path)
        store.save(OLD)
        with pytest.raises(SimulatedCrashError):
            store.save(NEW, crash_after_step=2)
        first = store.recover()
        assert first.action == "rolled_back"
        second = store.recover()
        assert second.action == "clean"
        assert store.load() == OLD

    def test_rolled_back_partial_files_removed(self, tmp_path):
        store = GenerationStore(tmp_path)
        store.save(OLD)
        with pytest.raises(SimulatedCrashError):
            store.save(NEW, crash_after_step=3)  # journal + 2 artifacts
        store.recover()
        assert list(tmp_path.glob("*.g2.json")) == []

    def test_roll_forward_finishes_cleanup(self, tmp_path):
        store = GenerationStore(tmp_path)
        store.save(OLD)
        total = store.total_save_steps(len(NEW))
        with pytest.raises(SimulatedCrashError):
            # Crash right after the manifest commit, before cleanup.
            store.save(NEW, crash_after_step=total - 2)
        assert store.journal_path.exists()
        recovery = store.recover()
        assert recovery.action == "rolled_forward"
        assert not store.journal_path.exists()
        assert store.load() == NEW
        assert list(tmp_path.glob("*.g1.json")) == []

    def test_recover_collects_generation_left_by_crash_before_gc(
        self, tmp_path
    ):
        store = GenerationStore(tmp_path)
        store.save(OLD)
        total = store.total_save_steps(len(NEW))
        with pytest.raises(SimulatedCrashError):
            # Crash after the journal unlink, before the old-generation
            # GC: no journal is left to say the old files are garbage.
            store.save(NEW, crash_after_step=total - 1)
        assert not store.journal_path.exists()
        assert store.stale_files()
        assert store.recover().action == "clean"
        assert store.stale_files() == []
        assert store.load() == NEW

    def test_recovery_sweeps_stray_tmp_files(self, tmp_path):
        store = GenerationStore(tmp_path)
        store.save(OLD)
        (tmp_path / "tree.g9.json.abc123.tmp").write_text("garbage")
        recovery = store.recover()
        assert any("temp" in note for note in recovery.notes)
        assert list(tmp_path.glob("*.tmp")) == []


class TestRealArtifacts:
    def test_tree_histogram_stats_bundle_roundtrip(self, tmp_path, small_tree):
        """The intended use: journal a real tree + histogram together."""
        from repro.reliability.integrity import dumps_artifact, loads_artifact

        hist = DistanceHistogram.uniform(32, 1.0)
        artifacts = {
            "tree": dumps_artifact(persistence.mtree_to_dict(small_tree)),
            "hist": dumps_artifact(persistence.histogram_to_dict(hist)),
        }
        store = GenerationStore(tmp_path)
        store.save(artifacts)
        loaded = store.load()
        clone = persistence.mtree_from_dict(
            loads_artifact(loaded["tree"]), small_tree.metric
        )
        assert clone.n_nodes() == small_tree.n_nodes()
        assert len(clone) == len(small_tree)
        hist_clone = persistence.histogram_from_dict(
            loads_artifact(loaded["hist"])
        )
        np.testing.assert_allclose(hist_clone.bin_probs, hist.bin_probs)
