"""Framework-level tests: suppressions, baselines, fingerprints, registry."""

import json

import pytest

from repro.analysis import (
    Baseline,
    Finding,
    all_rules,
    analyze_paths,
    create_checkers,
    load_module,
    render_json,
    render_text,
)
from repro.analysis.baseline import assign_occurrences
from repro.analysis.suppress import parse_suppressions
from repro.exceptions import FormatVersionError, InvalidParameterError

FLOAT_BAD = """\
# metalint: module=repro.core.tmp_case

def close(dist, threshold):
    return dist == threshold
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestSuppressions:
    def test_same_line_suppression(self, tmp_path):
        path = _write(
            tmp_path,
            "case.py",
            FLOAT_BAD.replace(
                "dist == threshold",
                "dist == threshold  # metalint: ignore[float-discipline]",
            ),
        )
        report = analyze_paths([path], rules=["float-discipline"], root=tmp_path)
        assert report.findings == []
        assert report.suppressed == 1

    def test_standalone_comment_covers_next_code_line(self, tmp_path):
        text = FLOAT_BAD.replace(
            "    return dist == threshold",
            "    # metalint: ignore[float-discipline] — exact by design\n"
            "    return dist == threshold",
        )
        path = _write(tmp_path, "case.py", text)
        report = analyze_paths([path], rules=["float-discipline"], root=tmp_path)
        assert report.findings == []
        assert report.suppressed == 1

    def test_whole_file_suppression(self, tmp_path):
        text = "# metalint: ignore-file[float-discipline]\n" + FLOAT_BAD
        path = _write(tmp_path, "case.py", text)
        report = analyze_paths([path], rules=["float-discipline"], root=tmp_path)
        assert report.findings == []
        assert report.suppressed == 1

    def test_star_suppresses_every_rule(self):
        state = parse_suppressions("x = 1  # metalint: ignore[*]\n")
        assert state.is_suppressed("anything", 1)

    def test_unrelated_rule_not_suppressed(self, tmp_path):
        path = _write(
            tmp_path,
            "case.py",
            FLOAT_BAD.replace(
                "dist == threshold",
                "dist == threshold  # metalint: ignore[lock-order]",
            ),
        )
        report = analyze_paths([path], rules=["float-discipline"], root=tmp_path)
        assert len(report.findings) == 1

    def test_module_override_scopes_path_gated_rules(self, tmp_path):
        # Without the override the file is not under repro.core/mtree/...,
        # so float-discipline must not fire at all.
        path = _write(
            tmp_path,
            "case.py",
            FLOAT_BAD.replace("# metalint: module=repro.core.tmp_case\n", ""),
        )
        report = analyze_paths([path], rules=["float-discipline"], root=tmp_path)
        assert report.findings == []

        module = load_module(
            _write(tmp_path, "case2.py", FLOAT_BAD), root=tmp_path
        )
        assert module.module_name == "repro.core.tmp_case"


class TestBaseline:
    def test_round_trip_and_split(self, tmp_path):
        path = _write(tmp_path, "case.py", FLOAT_BAD)
        report = analyze_paths([path], rules=["float-discipline"], root=tmp_path)
        assert len(report.findings) == 1

        baseline = Baseline.from_findings(report.findings, "known debt")
        baseline_path = tmp_path / "baseline.json"
        baseline.save(baseline_path)
        loaded = Baseline.load(baseline_path)
        assert len(loaded) == 1

        again = analyze_paths(
            [path], rules=["float-discipline"], baseline=loaded, root=tmp_path
        )
        assert again.ok
        assert len(again.baselined) == 1
        assert again.unused_baseline == []

    def test_fingerprint_survives_line_renumbering(self, tmp_path):
        path = _write(tmp_path, "case.py", FLOAT_BAD)
        report = analyze_paths([path], rules=["float-discipline"], root=tmp_path)
        baseline = Baseline.from_findings(report.findings)

        # Insert lines above the violation: line numbers move, the
        # content fingerprint must not.
        shifted = FLOAT_BAD.replace(
            "def close", "# padding\n# more padding\n\ndef close"
        )
        path.write_text(shifted, encoding="utf-8")
        again = analyze_paths(
            [path], rules=["float-discipline"], baseline=baseline, root=tmp_path
        )
        assert again.ok
        assert len(again.baselined) == 1

    def test_fingerprint_survives_file_move(self, tmp_path):
        path = _write(tmp_path, "case.py", FLOAT_BAD)
        report = analyze_paths([path], rules=["float-discipline"], root=tmp_path)
        baseline = Baseline.from_findings(report.findings)

        # Rename the file: the exact fingerprint (which embeds the
        # path) no longer matches, but the move pass pairs the finding
        # with the stale entry by (rule, snippet).
        moved = tmp_path / "renamed_case.py"
        path.rename(moved)
        again = analyze_paths(
            [moved], rules=["float-discipline"], baseline=baseline, root=tmp_path
        )
        assert again.ok, again.render()
        assert len(again.baselined) == 1
        assert again.unused_baseline == []

    def test_move_matching_vouches_once_per_entry(self, tmp_path):
        # One grandfathered finding, then the violation is *duplicated*
        # in a second file: the single stale entry may cover one of the
        # two, never both.
        path = _write(tmp_path, "case.py", FLOAT_BAD)
        report = analyze_paths([path], rules=["float-discipline"], root=tmp_path)
        baseline = Baseline.from_findings(report.findings)

        moved = tmp_path / "renamed_case.py"
        path.rename(moved)
        copy = _write(tmp_path, "copied_case.py", FLOAT_BAD)
        again = analyze_paths(
            [moved, copy],
            rules=["float-discipline"],
            baseline=baseline,
            root=tmp_path,
        )
        assert len(again.baselined) == 1
        assert len(again.findings) == 1

    def test_prune_drops_only_stale_entries(self, tmp_path):
        path = _write(tmp_path, "case.py", FLOAT_BAD)
        report = analyze_paths([path], rules=["float-discipline"], root=tmp_path)
        baseline = Baseline.from_findings(report.findings, "known debt")
        baseline.entries["deadbeefdeadbeef"] = {
            "fingerprint": "deadbeefdeadbeef"
        }
        again = analyze_paths(
            [path], rules=["float-discipline"], baseline=baseline, root=tmp_path
        )
        assert again.unused_baseline == ["deadbeefdeadbeef"]
        assert baseline.prune(again.unused_baseline) == 1
        assert len(baseline) == 1
        assert "deadbeefdeadbeef" not in baseline

    def test_suppressed_finding_does_not_enter_baseline(self, tmp_path):
        # Suppression beats baseline-writing: a comment-suppressed
        # violation is invisible to --write-baseline...
        suppressed_text = FLOAT_BAD.replace(
            "dist == threshold",
            "dist == threshold  # metalint: ignore[float-discipline]",
        )
        path = _write(tmp_path, "case.py", suppressed_text)
        report = analyze_paths([path], rules=["float-discipline"], root=tmp_path)
        assert report.suppressed == 1
        baseline = Baseline.from_findings(report.findings)
        assert len(baseline) == 0

        # ...and removing the suppression resurfaces it as a *new*
        # finding, not a baselined one.
        path.write_text(FLOAT_BAD, encoding="utf-8")
        again = analyze_paths(
            [path], rules=["float-discipline"], baseline=baseline, root=tmp_path
        )
        assert len(again.findings) == 1
        assert again.baselined == []

    def test_suppression_wins_over_matching_baseline_entry(self, tmp_path):
        # A finding that is both baselined *and* comment-suppressed
        # counts as suppressed — it must not consume the baseline entry,
        # which is then reported stale.
        path = _write(tmp_path, "case.py", FLOAT_BAD)
        report = analyze_paths([path], rules=["float-discipline"], root=tmp_path)
        baseline = Baseline.from_findings(report.findings, "known debt")

        path.write_text(
            FLOAT_BAD.replace(
                "dist == threshold",
                "dist == threshold  # metalint: ignore[float-discipline]",
            ),
            encoding="utf-8",
        )
        again = analyze_paths(
            [path], rules=["float-discipline"], baseline=baseline, root=tmp_path
        )
        assert again.suppressed == 1
        assert again.baselined == []
        assert len(again.unused_baseline) == 1

    def test_unused_entries_are_reported(self, tmp_path):
        path = _write(tmp_path, "clean.py", "x = 1\n")
        baseline = Baseline(
            entries={"deadbeefdeadbeef": {"fingerprint": "deadbeefdeadbeef"}}
        )
        report = analyze_paths([path], baseline=baseline, root=tmp_path)
        assert report.unused_baseline == ["deadbeefdeadbeef"]

    def test_load_rejects_wrong_format(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({"format": "something-else"}), "utf-8")
        with pytest.raises(FormatVersionError):
            Baseline.load(bad)

    def test_load_rejects_entry_without_fingerprint(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(
            json.dumps(
                {"format": "metricost-lint-baseline-v1", "entries": [{}]}
            ),
            "utf-8",
        )
        with pytest.raises(InvalidParameterError):
            Baseline.load(bad)

    def test_identical_snippets_get_distinct_fingerprints(self):
        findings = [
            Finding("a.py", line, 0, "r", "m", snippet="x == y")
            for line in (3, 9)
        ]
        pairs = assign_occurrences(findings)
        assert len({fp for _f, fp in pairs}) == 2


class TestRegistryAndEngine:
    def test_all_rules_contains_the_project_rules(self):
        assert {
            "api-surface",
            "cancellation-hygiene",
            "deadline-propagation",
            "durability-protocol",
            "epoch-fence",
            "exception-hierarchy",
            "float-discipline",
            "lock-order",
            "lockset-race",
            "observability-guard",
        } <= set(all_rules())

    def test_unknown_rule_is_rejected(self):
        with pytest.raises(InvalidParameterError):
            create_checkers(["no-such-rule"])

    def test_missing_path_is_rejected(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            analyze_paths([tmp_path / "nope.py"])

    def test_syntax_error_becomes_finding(self, tmp_path):
        path = _write(tmp_path, "broken.py", "def broken(:\n")
        report = analyze_paths([path], root=tmp_path)
        assert [f.rule for f in report.findings] == ["syntax-error"]

    def test_reports_render_both_ways(self, tmp_path):
        path = _write(tmp_path, "case.py", FLOAT_BAD)
        report = analyze_paths([path], rules=["float-discipline"], root=tmp_path)
        text = render_text(report)
        assert "FAIL" in text and "float-discipline" in text
        payload = json.loads(render_json(report))
        assert payload["format"] == "metricost-lint-report-v1"
        assert payload["ok"] is False
        assert payload["counts_by_rule"] == {"float-discipline": 1}

    def test_json_output_is_deterministic(self, tmp_path):
        path = _write(tmp_path, "case.py", FLOAT_BAD)
        first = analyze_paths(
            [path], rules=["float-discipline"], root=tmp_path
        ).to_json()
        second = analyze_paths(
            [path], rules=["float-discipline"], root=tmp_path
        ).to_json()
        assert first == second
