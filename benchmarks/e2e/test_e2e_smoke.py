"""Smoke test of the end-to-end benchmark at a tiny scale.

Runs ``run.py`` in subprocesses, exactly as a user would, and checks
that every metric ``BENCHMARK.json`` lists is printed with its unit,
that nothing failed, that the traced run reports every per-layer
metric, and that the answer checker catches a planted wrong answer.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN = HERE / "run.py"
SMALL = ["--seed", "1", "--scale", "0.02", "--seconds", "1"]
TIMEOUT_S = 300


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=ROOT, capture_output=True,
        text=True, timeout=TIMEOUT_S,
    )


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "untraced.json"
    done = _run(*SMALL, "--out", str(out))
    return done, json.loads(out.read_text())


def test_every_end_to_end_metric_is_printed_with_its_unit(untraced):
    done, doc = untraced
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    for workload in _spec()["workloads"]:
        metrics = doc["workloads"][workload["name"]]["metrics"]
        for entry in _spec()["end_to_end"]:
            assert metrics[entry["name"]]["unit"] == entry["unit"]
            assert any(
                line.split()[:1] == [entry["name"]]
                and line.rstrip().endswith(" " + entry["unit"])
                for line in lines
            ), f"{workload['name']}: {entry['name']} not printed"
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_nothing_fails(untraced):
    _done, doc = untraced
    for name, result in doc["workloads"].items():
        assert result["correct"], (name, result["errors"])
        assert result["failed"] == 0 and result["attempted"] > 0, name


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    out = tmp_path / "traced.json"
    done = _run(*SMALL, "--trace", "1", "--out", str(out),
                "--spans", str(tmp_path / "spans"))
    assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text())
    listed = [m["name"] for m in _spec()["per_layer"]]
    for name, result in doc["workloads"].items():
        assert list(result["metrics"]) == listed, name
        assert (tmp_path / "spans" / f"{name}-seed1.spans.json").is_file()
    cluster = doc["workloads"]["cluster-scatter"]["metrics"]
    assert cluster["cluster.threads_started_per_op"]["value"] > 0
    vectors = doc["workloads"]["vectors-mtree"]["metrics"]
    assert vectors["cluster.threads_started_per_op"]["value"] == 0


PLANTED = """
import sys, tempfile
sys.path[:0] = [{src!r}, {here!r}]
import repro.mtree.tree as tree_mod
import workloads

original = tree_mod.MTree.range_query

def wrong(self, *args, **kwargs):
    result = original(self, *args, **kwargs)
    result.items.append((-1, None, 0.0))  # an object that does not exist
    return result

tree_mod.MTree.range_query = wrong
with tempfile.TemporaryDirectory() as workdir:
    result = workloads.run_workload("vectors-mtree", 1, 1.0, 0.02, False, workdir)
print(result["correct"], result["failed"])
"""


def test_checker_flags_a_planted_wrong_answer():
    code = PLANTED.format(src=str(ROOT / "src"), here=str(HERE))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True,
        text=True, timeout=TIMEOUT_S,
    )
    assert done.returncode == 0, done.stderr
    correct, failed = done.stdout.split()
    assert correct == "False" and int(failed) > 0
