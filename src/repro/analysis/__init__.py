"""Project-specific static analysis (``metalint``).

The correctness of every cost-model number in this repo rests on
code-level disciplines that ordinary linters cannot see: the paper's
pruning criteria (Lemmas 1-2) are silently broken by float equality on
distances; the serving layer depends on every shared-state mutation
happening under a lock and on cancellation errors never being swallowed
by broad isolation handlers; the observability layer promised
zero-cost-when-disabled instrumentation in hot traversal loops.  This
package machine-checks those invariants (see ``docs/static-analysis.md``):

* :mod:`~repro.analysis.engine` — parses source into
  :class:`SourceModule` records and drives registered checkers;
* :mod:`~repro.analysis.flow` — the shared interprocedural call graph,
  reachability and lock facts behind the whole-program rules;
* :mod:`~repro.analysis.checkers` — the project rules
  (``lockset-race``, ``lock-order``, ``cancellation-hygiene``,
  ``exception-hierarchy``, ``float-discipline``,
  ``observability-guard``, ``api-surface``, and the protocol rules
  ``durability-protocol``, ``epoch-fence``, ``deadline-propagation``);
* :mod:`~repro.analysis.suppress` — per-line
  ``# metalint: ignore[RULE]`` suppressions;
* :mod:`~repro.analysis.baseline` — a committed baseline file for
  explicitly grandfathered findings;
* :mod:`~repro.analysis.report` — text and JSON reporters.

Run it as ``python -m repro lint`` (wired into CI as a hard gate) or
programmatically::

    from repro.analysis import analyze_paths

    report = analyze_paths(["src"])
    print(report.render())
    assert not report.findings
"""

from __future__ import annotations

from .baseline import Baseline
from .engine import AnalysisReport, SourceModule, analyze_paths, load_module
from .findings import Finding
from .registry import Checker, all_rules, create_checkers, register
from .report import render_json, render_text

__all__ = [
    "AnalysisReport",
    "Baseline",
    "Checker",
    "Finding",
    "SourceModule",
    "all_rules",
    "analyze_paths",
    "create_checkers",
    "load_module",
    "register",
    "render_json",
    "render_text",
]
