"""Smoke-run every bench entry point at quick scale.

Each ``benchmarks/bench_*.py`` file is executed in a subprocess with
``METRICOST_BENCH_SCALE=quick`` and ``--benchmark-disable`` (one plain
call per bench, no timing rounds), asserting a clean exit and that the
autouse conftest fixture emitted a metrics snapshot for every test in the
file.  This keeps all twenty paper/extension benches runnable without
paying their default-scale runtimes in CI.  A quick-scale run must leave
the tracked ``benchmarks/BENCH_*.json`` trajectories byte-identical.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"
BENCH_FILES = sorted(BENCH_DIR.glob("bench_*.py"))
TRAJECTORIES = sorted(BENCH_DIR.glob("BENCH_*.json"))

# Per-file subprocess timeout: quick-scale benches finish in 3-15 s each;
# a stuck bench should fail fast rather than hang the suite.
TIMEOUT_S = 180


def test_bench_directory_is_nonempty():
    assert len(BENCH_FILES) >= 20, "bench suite unexpectedly shrank"
    assert TRAJECTORIES, "no tracked BENCH_*.json trajectory to guard"


@pytest.mark.parametrize(
    "bench_file", BENCH_FILES, ids=lambda p: p.stem
)
def test_bench_smoke(bench_file, tmp_path):
    metrics_dir = tmp_path / "metrics"
    env = dict(os.environ)
    env["METRICOST_BENCH_SCALE"] = "quick"
    env["METRICOST_METRICS_DIR"] = str(metrics_dir)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    before = {path.name: path.read_bytes() for path in TRAJECTORIES}
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            str(bench_file),
            "--benchmark-disable",
            "-q",
            "-x",
            "-p",
            "no:cacheprovider",
        ],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    assert proc.returncode == 0, (
        f"{bench_file.name} failed at quick scale:\n"
        f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
    )
    after = {path.name: path.read_bytes() for path in TRAJECTORIES}
    changed = sorted(name for name in before if after[name] != before[name])
    assert not changed, (
        f"{bench_file.name} rewrote tracked trajectories at quick scale: "
        f"{changed}"
    )

    snapshots = sorted(metrics_dir.glob("*.metrics.json"))
    assert snapshots, f"{bench_file.name} emitted no metrics snapshot"
    for snapshot_file in snapshots:
        payload = json.loads(snapshot_file.read_text())
        assert payload["format"] == "metricost-metrics-v1"
