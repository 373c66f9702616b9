"""Unit tests of ``compare.py`` on hand-made result documents.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_compare.py
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Dict

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "a"}, {"name": "b"}],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "dists_per_query", "unit": "count", "better": "lower",
         "bound": 0.02},
    ],
    "per_layer": [{"name": "x.share", "unit": "fraction", "better": "lower"}],
}


def _doc(workloads: Dict[str, Dict[str, float]], seed: int = 1) -> Dict[str, Any]:
    return {
        "header": {"backend": "numpy", "cpu_count": 2, "scale": 1.0,
                   "seconds": 30.0, "trace": 0, "seed": seed},
        "workloads": {
            name: {"metrics": {m: {"value": v} for m, v in metrics.items()}}
            for name, metrics in workloads.items()
        },
    }


def test_refuses_sides_that_ran_different_workloads():
    parent = [_doc({"a": {"setup_s": 1.0}, "b": {"setup_s": 1.0}})]
    change = [_doc({"a": {"setup_s": 1.0}})]
    reason = compare.mismatch(parent, change)
    assert reason is not None and "workloads differ" in reason


def test_refuses_different_seeds():
    reason = compare.mismatch([_doc({"a": {}}, seed=1)], [_doc({"a": {}}, seed=2)])
    assert reason is not None and "seeds differ" in reason


def test_metric_on_one_side_only_is_left_out():
    parent = [_doc({"a": {"setup_s": 1.0}})]
    change = [_doc({"a": {"setup_s": 1.05, "x.share": 0.5}})]
    assert compare.mismatch(parent, change) is None
    rows = compare.compare(parent, change, SPEC)
    assert [(r["workload"], r["metric"], r["verdict"]) for r in rows] == [
        ("a", "setup_s", "within"),
    ]


def _verdicts(parent, change):
    return {r["metric"]: r["verdict"] for r in compare.compare(parent, change, SPEC)}


def test_verdicts_follow_the_bound_and_direction():
    parent = [_doc({"a": {"setup_s": 1.0}})]
    assert _verdicts(parent, [_doc({"a": {"setup_s": 0.8}})]) == {"setup_s": "better"}
    assert _verdicts(parent, [_doc({"a": {"setup_s": 1.2}})]) == {"setup_s": "worse"}


def test_a_count_that_repeats_exactly_is_held_exactly():
    parent = [_doc({"a": {"dists_per_query": 100.0}})] * 2
    change = [_doc({"a": {"dists_per_query": 101.0}})] * 2
    assert _verdicts(parent, change) == {"dists_per_query": "worse"}
    varying = [_doc({"a": {"dists_per_query": 100.0}}),
               _doc({"a": {"dists_per_query": 100.5}})]
    assert _verdicts(varying, change) == {"dists_per_query": "within"}
