"""Compare two sets of benchmark results, one row per workload and metric.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are each a result document written by
``run.py --out`` or a directory of them (one document per run).  Every
row prints both medians, the change, and one verdict:

* ``within`` -- the change's median is no worse than the parent's by
  more than the metric's bound, nor better by more;
* ``better`` / ``worse`` -- it moved by more than the bound;
* ``unresolved`` -- the parent's own runs spread (quartile distance over
  median) wider than the bound, so a move cannot be told from noise,
  unless every run of the change beats every run of the parent.

Bounds and directions come from ``BENCHMARK.json``; a metric listed
without a bound (the per-layer ones) is held to ``DEFAULT_BOUND``.  An
end-to-end count that every parent run reads the same (counts repeat
exactly for a seed) is held exactly: its bound in ``BENCHMARK.json`` is
the spread across seeds, and both sides here ran the same seeds.  The
comparison is refused when the two sides differ in backend, core count,
scale, seeds, run length, trace mode or the workloads they ran.  A metric
that only one side's results carry is left out.  Exit code: 0, or 1 when
any row is ``worse``, or 2 when the inputs cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent
DEFAULT_BOUND = 0.10
#: Header fields that must agree for two results to be comparable.
MATCHED = ("backend", "cpu_count", "scale", "seconds", "trace")


def load_side(path: Path) -> List[Dict[str, Any]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    docs = []
    for file in files:
        with open(file, encoding="utf-8") as handle:
            doc = json.load(handle)
        if "header" in doc and "workloads" in doc:
            docs.append(doc)
    return docs


def mismatch(parent: List[Dict[str, Any]], change: List[Dict[str, Any]]) -> Optional[str]:
    """Why the two sides cannot be compared, or None."""
    if not parent or not change:
        return "each side needs at least one result document"
    headers = [d["header"] for d in parent + change]
    for key in MATCHED:
        values = {json.dumps(h.get(key)) for h in headers}
        if len(values) > 1:
            return f"header field {key!r} differs: {sorted(values)}"
    seeds = [sorted(d["header"]["seed"] for d in side) for side in (parent, change)]
    if seeds[0] != seeds[1]:
        return f"seeds differ: {seeds[0]} vs {seeds[1]}"
    ran = {json.dumps(sorted(d["workloads"])) for d in parent + change}
    if len(ran) > 1:
        return f"workloads differ: {sorted(ran)}"
    return None


def _values(docs: List[Dict[str, Any]], workload: str, metric: str) -> List[float]:
    out = []
    for doc in docs:
        result = doc["workloads"].get(workload, {})
        for section in ("metrics", "detail"):
            if metric in result.get(section, {}):
                out.append(float(result[section][metric]["value"]))
    return out


def _spread(values: List[float]) -> float:
    """Quartile distance over median (0 with fewer than two runs)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(
    parent: List[float], change: List[float], lower_is_better: bool, bound: float
) -> Tuple[str, float]:
    """The verdict and the relative change of the medians."""
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    if p_med == c_med:
        return "within", 0.0
    rel = (c_med - p_med) / abs(p_med) if p_med else float("inf")
    worse = rel if lower_is_better else -rel
    if lower_is_better:
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if _spread(parent) > bound:
        return ("better" if all_better else "unresolved"), rel
    if worse > bound:
        return "worse", rel
    if -worse > bound:
        return "better", rel
    return "within", rel


def compare(
    parent: List[Dict[str, Any]], change: List[Dict[str, Any]], spec: Dict[str, Any]
) -> List[Dict[str, Any]]:
    rows = []
    catalogue = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for name, entry in catalogue.items():
            p_vals = _values(parent, workload, name)
            c_vals = _values(change, workload, name)
            if not p_vals or not c_vals:
                continue  # a metric only one side's results carry
            if not any(p_vals) and not any(c_vals):
                continue  # a layer the workload never reaches
            bound = float(entry.get("bound", DEFAULT_BOUND))
            if "bound" in entry and entry["unit"] == "count" and len(set(p_vals)) == 1:
                bound = 0.0
            result, rel = verdict(
                p_vals, c_vals, entry["better"] == "lower", bound
            )
            rows.append({
                "workload": workload, "metric": name, "unit": entry["unit"],
                "parent": statistics.median(p_vals),
                "change": statistics.median(c_vals),
                "rel": rel, "bound": bound, "verdict": result,
            })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parent, change = load_side(args.parent), load_side(args.change)
    reason = mismatch(parent, change)
    if reason is not None:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    rows = compare(parent, change, spec)
    print(f"{'workload':<17} {'metric':<36} {'parent':>12} {'change':>12} "
          f"{'delta':>8} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<17} {row['metric']:<36} "
              f"{row['parent']:>12.5g} {row['change']:>12.5g} "
              f"{row['rel']:>+8.1%} {row['bound']:>6.0%}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
