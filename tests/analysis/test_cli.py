"""CLI tests for ``python -m repro lint``."""

import json
from pathlib import Path

from repro.__main__ import main
from repro.analysis import Baseline

REPO_ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).parent / "corpus"

FLOAT_BAD = """\
# metalint: module=repro.core.cli_case

def close(dist, threshold):
    return dist == threshold
"""


def test_lint_src_with_repo_baseline_exits_zero(capsys):
    code = main(
        [
            "lint",
            str(REPO_ROOT / "src"),
            "--baseline",
            str(REPO_ROOT / "metalint-baseline.json"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0, out
    assert "OK:" in out


def test_lint_corpus_exits_nonzero(capsys):
    code = main(["lint", str(CORPUS), "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL:" in out


def test_lint_json_output(capsys):
    code = main(["lint", str(CORPUS), "--no-baseline", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["format"] == "metricost-lint-report-v1"
    assert payload["ok"] is False
    assert payload["counts_by_rule"]["lock-order"] == 2


def test_lint_rules_filter(capsys):
    code = main(
        ["lint", str(CORPUS), "--no-baseline", "--json", "--rules", "api-surface"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["rules_run"] == ["api-surface"]
    assert set(payload["counts_by_rule"]) == {"api-surface"}


def test_list_rules(capsys):
    code = main(["lint", "--list-rules"])
    out = capsys.readouterr().out
    assert code == 0
    for rule in (
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
    ):
        assert rule in out
    assert "lock-discipline" not in out


def test_write_baseline_round_trip(tmp_path, capsys):
    case = tmp_path / "case.py"
    case.write_text(FLOAT_BAD, encoding="utf-8")
    baseline_path = tmp_path / "baseline.json"

    code = main(
        ["lint", str(case), "--write-baseline", "--baseline", str(baseline_path)]
    )
    assert code == 0
    assert len(Baseline.load(baseline_path)) == 1
    capsys.readouterr()

    # With the fresh baseline the same violation is grandfathered.
    code = main(["lint", str(case), "--baseline", str(baseline_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 baselined" in out


def test_missing_baseline_file_fails_cleanly(tmp_path, capsys):
    case = tmp_path / "clean.py"
    case.write_text("x = 1\n", encoding="utf-8")
    code = main(
        ["lint", str(case), "--baseline", str(tmp_path / "absent.json")]
    )
    assert code == 0  # no baseline file means no baseline, not a crash


def test_sarif_output_is_valid_and_stable(capsys):
    code = main(["lint", str(CORPUS), "--no-baseline", "--format", "sarif"])
    first = capsys.readouterr().out
    assert code == 1  # findings still gate the exit code
    payload = json.loads(first)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "metricost-metalint"
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert "lockset-race" in rule_ids and "durability-protocol" in rule_ids
    results = run["results"]
    assert results, "corpus findings must appear as SARIF results"
    for result in results:
        location = result["locations"][0]["physicalLocation"]
        assert not location["artifactLocation"]["uri"].startswith("/")
        assert location["region"]["startLine"] >= 1

    code = main(["lint", str(CORPUS), "--no-baseline", "--format", "sarif"])
    assert capsys.readouterr().out == first  # deterministic byte-for-byte


def test_sarif_marks_baselined_findings_suppressed(tmp_path, capsys):
    case = tmp_path / "case.py"
    case.write_text(FLOAT_BAD, encoding="utf-8")
    baseline_path = tmp_path / "baseline.json"
    main(
        ["lint", str(case), "--write-baseline", "--baseline", str(baseline_path)]
    )
    capsys.readouterr()
    code = main(
        [
            "lint",
            str(case),
            "--baseline",
            str(baseline_path),
            "--format",
            "sarif",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    results = payload["runs"][0]["results"]
    assert len(results) == 1
    assert results[0]["suppressions"][0]["kind"] == "external"


def test_prune_baseline_removes_stale_entries(tmp_path, capsys):
    case = tmp_path / "case.py"
    case.write_text(FLOAT_BAD, encoding="utf-8")
    baseline_path = tmp_path / "baseline.json"
    main(
        ["lint", str(case), "--write-baseline", "--baseline", str(baseline_path)]
    )
    capsys.readouterr()

    # Fix the violation: the baseline entry goes stale...
    case.write_text("# metalint: module=repro.core.cli_case\nx = 1\n", "utf-8")
    code = main(["lint", str(case), "--baseline", str(baseline_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "stale" in out  # the text reporter warns before any pruning

    # ...and --prune-baseline removes exactly it.
    code = main(
        [
            "lint",
            str(case),
            "--baseline",
            str(baseline_path),
            "--prune-baseline",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "pruned 1 stale entry" in out
    assert len(Baseline.load(baseline_path)) == 0


def test_prune_baseline_without_file_is_an_error(tmp_path, capsys):
    case = tmp_path / "clean.py"
    case.write_text("x = 1\n", encoding="utf-8")
    code = main(
        [
            "lint",
            str(case),
            "--baseline",
            str(tmp_path / "absent.json"),
            "--prune-baseline",
        ]
    )
    assert code == 2
    assert "nothing to prune" in capsys.readouterr().err


def test_changed_mode_lints_only_touched_modules(tmp_path, capsys, monkeypatch):
    import subprocess

    def git(*argv):
        subprocess.run(
            ["git", "-C", str(tmp_path), *argv],
            check=True,
            capture_output=True,
        )

    # Anchor root resolution inside the scratch repo, not the real one.
    monkeypatch.chdir(tmp_path)
    git("init", "-q")
    git("config", "user.email", "lint@example.com")
    git("config", "user.name", "lint")
    clean = tmp_path / "committed.py"
    clean.write_text(FLOAT_BAD, encoding="utf-8")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "api.md").write_text("# api\n", encoding="utf-8")
    git("add", "-A")
    git("commit", "-qm", "seed")

    # The committed violation is invisible in --changed mode...
    code = main(["lint", str(tmp_path), "--changed", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0, payload
    assert payload["counts_by_rule"] == {}

    # ...but a new (untracked) file with the same violation is caught.
    touched = tmp_path / "touched.py"
    touched.write_text(FLOAT_BAD, encoding="utf-8")
    code = main(["lint", str(tmp_path), "--changed", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["counts_by_rule"] == {"float-discipline": 1}
    (paths,) = {f["path"] for f in payload["findings"]}
    assert paths.endswith("touched.py")


def test_changed_mode_outside_git_fails_cleanly(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    case = tmp_path / "case.py"
    case.write_text("x = 1\n", encoding="utf-8")
    code = main(["lint", str(case), "--changed"])
    assert code == 2
    assert "git work tree" in capsys.readouterr().err
