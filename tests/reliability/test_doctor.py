"""Tests for the ``python -m repro doctor`` subcommand."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.__main__ import build_parser, main
from repro.core import DistanceHistogram
from repro.persistence import save_histogram
from repro.reliability import render_doctor, run_doctor
from repro.analysis import all_rules
from repro.reliability.doctor import _static_analysis, flip_body_bit

EXPECTED_CHECKS = {
    "checksum round-trip",
    "bit-flip detection",
    "version gate",
    "truncation detection",
    "fault injection",
    "retry recovery",
    "degradation ladder",
    "crash recovery",
    "workload isolation",
    "structural fsck",
    "scrub quarantine",
    "router partial answers",
    "lifecycle gc",
    "ingest wal",
    "static analysis",
}


class TestParser:
    def test_doctor_subcommand_exists(self):
        args = build_parser().parse_args(["doctor"])
        assert args.experiment == "doctor"
        assert args.artifacts is None
        assert args.seed == 0

    def test_doctor_flags(self):
        args = build_parser().parse_args(
            ["doctor", "--artifacts", "/tmp/a", "--seed", "3"]
        )
        assert args.artifacts == "/tmp/a"
        assert args.seed == 3


class TestSelfTest:
    def test_all_checks_pass(self):
        checks, reports = run_doctor(seed=0)
        assert {check.name for check in checks} == EXPECTED_CHECKS
        failing = [check for check in checks if not check.ok]
        assert failing == []
        assert reports == []

    def test_detects_bit_flipped_histogram(self):
        """The acceptance criterion: the doctor's own self-test flips a
        bit in a saved histogram and the checksum catches it."""
        checks, _reports = run_doctor(seed=1)
        by_name = {check.name: check for check in checks}
        flip = by_name["bit-flip detection"]
        assert flip.ok
        assert "checksum mismatch" in flip.detail

    def test_render_shape(self):
        checks, reports = run_doctor(seed=0)
        text = render_doctor(checks, reports)
        assert "doctor: healthy" in text
        for name in EXPECTED_CHECKS:
            assert name in text


RACY_MODULE = """\
import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.total = 0

    def record(self):
        with self._lock:
            self.total += 1

    def forget(self):
        self.total -= 1
"""


class TestStaticAnalysisWithoutRepo:
    """A package with no ``metalint-baseline.json`` or ``docs/api.md``
    above it is linted under every registered rule but ``api-surface``."""

    def test_runs_every_code_rule(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "clean.py").write_text("x = 1\n", encoding="utf-8")
        detail = _static_analysis(package)
        expected = len([r for r in all_rules() if r != "api-surface"])
        assert f"1 files under {expected} rules" in detail

    def test_real_package_is_clean(self, tmp_path):
        # The doctor on an installed package: no baseline to forgive a
        # finding, so the package itself must lint clean.
        source = Path(__file__).resolve().parents[2] / "src" / "repro"
        package = tmp_path / "repro"
        shutil.copytree(
            source,
            package,
            ignore=shutil.ignore_patterns("__pycache__", "*.so"),
        )
        assert "metalint clean" in _static_analysis(package)

    def test_reports_lock_findings(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "racy.py").write_text(RACY_MODULE, encoding="utf-8")
        with pytest.raises(AssertionError, match="lockset-race=1"):
            _static_analysis(package)


class TestArtifactScan:
    def test_sound_directory(self, tmp_path):
        save_histogram(DistanceHistogram.uniform(16, 1.0), tmp_path / "a.json")
        checks, reports = run_doctor(artifacts_dir=str(tmp_path), seed=0)
        assert len(reports) == 1
        assert reports[0].ok
        assert "1/1 sound" in render_doctor(checks, reports)

    def test_corrupted_artifact_reported(self, tmp_path):
        save_histogram(DistanceHistogram.uniform(16, 1.0), tmp_path / "a.json")
        save_histogram(DistanceHistogram.uniform(16, 1.0), tmp_path / "b.json")
        flip_body_bit(tmp_path / "b.json")
        _checks, reports = run_doctor(artifacts_dir=str(tmp_path), seed=0)
        by_path = {report.path: report for report in reports}
        assert by_path[str(tmp_path / "a.json")].ok
        bad = by_path[str(tmp_path / "b.json")]
        assert not bad.ok
        assert "checksum" in bad.error

    def test_non_artifact_json_flagged(self, tmp_path):
        (tmp_path / "junk.json").write_text("not json at all")
        _checks, reports = run_doctor(artifacts_dir=str(tmp_path), seed=0)
        assert len(reports) == 1
        assert not reports[0].ok


class TestCLI:
    def test_doctor_exit_zero_when_healthy(self, capsys):
        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "doctor: healthy" in out
        assert "bit-flip detection" in out

    def test_doctor_exit_nonzero_on_corruption(self, tmp_path, capsys):
        path = tmp_path / "hist.json"
        save_histogram(DistanceHistogram.uniform(16, 1.0), path)
        flip_body_bit(path)
        assert main(["doctor", "--artifacts", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "PROBLEMS FOUND" in out
        assert str(path) in out

    def test_experiments_unaffected(self):
        """The doctor subparser must not disturb experiment parsing."""
        args = build_parser().parse_args(["figure1", "--quick"])
        assert args.experiment == "figure1"
        assert args.quick


class TestLegacyArtifacts:
    def test_scan_accepts_legacy_files(self, tmp_path):
        from repro.persistence import histogram_to_dict

        payload = histogram_to_dict(DistanceHistogram.uniform(8, 1.0))
        (tmp_path / "old.json").write_text(json.dumps(payload))
        _checks, reports = run_doctor(artifacts_dir=str(tmp_path), seed=0)
        assert reports[0].ok
        assert not reports[0].checksummed
