"""Run the end-to-end benchmark: every workload, every metric, checked.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 1
    python3 benchmarks/e2e/run.py --workload text-edit --seed 3 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --seed 1 --trace 1 --spans spans/ --out trace.json

Each workload runs in a fresh child interpreter, one after another, so
its peak memory and warm-up are its own.  ``--trace 0`` prints every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` prints every
per-layer metric instead, from a run that patches the layer boundaries
(see ``tracing.py``).  Each metric is printed by name with its unit,
and the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Sampled answers
are re-checked against a linear scan; the exit code is 1 if any answer
was wrong or any operation failed, and 2 if the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170.0


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _git(*args: str) -> Optional[str]:
    """Output of a git command in the checkout, or None outside a clone."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True,
            timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _header(args: argparse.Namespace, env: Dict[str, Any]) -> Dict[str, Any]:
    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        **env,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ------------------------------------------------------------------ child


def child_main(args: argparse.Namespace) -> int:
    """Run one workload in this interpreter; print its result as JSON."""
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from tracing import write_spans

    # Scratch files (the ingest store) stay inside the checkout.
    with tempfile.TemporaryDirectory(prefix=".e2e-work-", dir=ROOT) as workdir:
        result = workloads.run_workload(
            args.workload[0], args.seed, args.seconds, args.scale,
            bool(args.trace), workdir,
        )
    phases = result.pop("phases")
    if args.spans and phases is not None:
        os.makedirs(args.spans, exist_ok=True)
        write_spans(
            os.path.join(args.spans,
                         f"{args.workload[0]}-seed{args.seed}.spans.json"),
            phases,
        )
    result["environment"] = workloads.environment()
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------- parent


def run_child(args: argparse.Namespace, workload: str) -> Optional[Dict[str, Any]]:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--scale", repr(args.scale),
        "--trace", str(args.trace),
    ]
    if args.spans:
        command += ["--spans", args.spans]
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish within {CHILD_TIMEOUT_S:.0f} s",
              file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"error: {workload} exited with code {done.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _with_units(
    computed: Dict[str, float], listed: List[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """The listed metrics that were computed, in order, with units."""
    return {
        e["name"]: {"value": computed[e["name"]], "unit": e["unit"]}
        for e in listed if e["name"] in computed
    }


def parent_main(args: argparse.Namespace) -> int:
    for needed in (SRC / "repro" / "__init__.py", ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"error: {needed} is missing", file=sys.stderr)
            return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(f"error: unknown workload(s) {unknown}; choose from {known}",
              file=sys.stderr)
        return 2
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    detail = spec["end_to_end"] + spec["per_layer"]
    doc: Dict[str, Any] = {"header": None, "workloads": {}}
    for workload in names:
        result = run_child(args, workload)
        if result is None:
            return 2
        if doc["header"] is None:
            doc["header"] = _header(args, result.pop("environment"))
        else:
            result.pop("environment")
        computed = result["metrics"]
        if args.trace:
            # A layer the workload never reaches reads 0.
            computed = {e["name"]: 0.0 for e in listed} | computed
        result["metrics"] = _with_units(computed, listed)
        missing = [e["name"] for e in listed if e["name"] not in computed]
        if missing:
            print(f"error: {workload} did not report {missing}", file=sys.stderr)
            return 2
        result["detail"] = {
            name: m for name, m in _with_units(computed, detail).items()
            if name not in result["metrics"]
        }
        doc["workloads"][workload] = result
        print(f"== {workload}: {result['attempted']} ops, "
              f"{result['failed']} failed, correct={result['correct']}")
        for section in ("metrics", "detail"):
            for name, m in result[section].items():
                print(f"   {name:<36} {m['value']:>14.6g} {m['unit']}")
        for error in result["errors"]:
            print(f"   ! {error}")
    print("== header: " + json.dumps(doc["header"]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
    results = doc["workloads"]
    if len(results) == 1:
        (only,) = results.values()
        metrics = only["metrics"]
    else:
        metrics = {f"{w}/{name}": m for w, r in results.items()
                   for name, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", action="extend",
                        help="workload(s) to run (default: all)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal length of one workload's run, which "
                             "fixes its op count (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of a traced run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply dataset sizes (smoke tests use 0.02)")
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--spans", help="with --trace 1: write raw spans "
                                        "into this directory")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.scale <= 0 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--scale and --seconds must be > 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
