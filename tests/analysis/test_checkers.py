"""Per-rule corpus tests: each bad fixture fires its rule, each clean
fixture stays silent for it.

The corpus under ``tests/analysis/corpus/`` seeds exactly the violations
the checkers exist to catch.  A fixture may legitimately trip *other*
rules too (a bare ``except:`` is both an exception-hierarchy and a
cancellation-hygiene violation), so the bad-side assertions check that
the target rule is among the findings rather than the only one.
"""

from pathlib import Path

import pytest

from repro.analysis import analyze_paths
from repro.analysis.engine import ProjectContext, load_module
from repro.analysis.flow import ProjectFlow

CORPUS = Path(__file__).parent / "corpus"
REPO_ROOT = Path(__file__).resolve().parents[2]

#: rule -> (bad fixture, expected finding count for that rule, clean fixture)
RULE_FIXTURES = {
    "lock-discipline": ("lock_discipline_bad.py", 2, "lock_discipline_clean.py"),
    "lock-order": ("lock_order_bad.py", 2, "lock_order_clean.py"),
    "cancellation-hygiene": ("cancellation_bad.py", 2, "cancellation_clean.py"),
    "exception-hierarchy": (
        "exception_hierarchy_bad.py",
        2,
        "exception_hierarchy_clean.py",
    ),
    "float-discipline": ("float_discipline_bad.py", 2, "float_discipline_clean.py"),
    "observability-guard": (
        "observability_guard_bad.py",
        1,
        "observability_guard_clean.py",
    ),
    "api-surface": ("api_surface_bad.py", 1, "api_surface_clean.py"),
    "lockset-race": ("lockset_race_bad.py", 3, "lockset_race_clean.py"),
    "durability-protocol": (
        "durability_protocol_bad.py",
        4,
        "durability_protocol_clean.py",
    ),
    "epoch-fence": ("epoch_fence_bad.py", 3, "epoch_fence_clean.py"),
    "deadline-propagation": (
        "deadline_propagation_bad.py",
        2,
        "deadline_propagation_clean.py",
    ),
}

#: Retired rules whose fixtures another rule now owns: ``lock-discipline``
#: was folded into ``lockset-race``, which must still catch its seeds.
FOLDED_RULES = {"lock-discipline": "lockset-race"}


def _run(rule, fixture):
    return analyze_paths([CORPUS / fixture], rules=[rule], root=REPO_ROOT)


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_bad_fixture_fires_rule(rule):
    bad, expected, _clean = RULE_FIXTURES[rule]
    rule = FOLDED_RULES.get(rule, rule)
    report = _run(rule, bad)
    fired = [f for f in report.findings if f.rule == rule]
    assert len(fired) == expected, report.render()
    for finding in fired:
        assert finding.path.endswith(bad)
        assert finding.line > 0
        assert finding.snippet


@pytest.mark.parametrize("rule", sorted(RULE_FIXTURES))
def test_clean_fixture_is_silent(rule):
    _bad, _expected, clean = RULE_FIXTURES[rule]
    rule = FOLDED_RULES.get(rule, rule)
    report = _run(rule, clean)
    assert [f for f in report.findings if f.rule == rule] == [], report.render()


def test_every_rule_fires_somewhere_in_corpus():
    """Acceptance criterion: all registered project rules are exercised."""
    report = analyze_paths([CORPUS], root=REPO_ROOT)
    fired = {finding.rule for finding in report.findings}
    assert set(RULE_FIXTURES) - set(FOLDED_RULES) <= fired, sorted(fired)


def test_lock_order_reports_cycle_and_self_deadlock():
    report = _run("lock-order", "lock_order_bad.py")
    messages = sorted(f.message for f in report.findings)
    assert any("lock-acquisition cycle" in m for m in messages)
    assert any("self-deadlock" in m for m in messages)


def test_lock_order_follows_annotated_module_globals():
    """The cycle's two edges run through ``orders`` and ``inventory``,
    module globals typed only by their annotations."""
    fixture = Path(__file__).parent / "flow_corpus" / "lock_order_via_globals.py"
    report = analyze_paths([fixture], rules=["lock-order"], root=REPO_ROOT)
    assert [f.line for f in report.findings] == [24], report.render()
    assert "Inventory -> OrderBook -> Inventory" in report.findings[0].message


def test_lock_order_survives_name_collisions_across_fixtures():
    """Bad and clean fixtures reuse class names; resolution must stay
    module-local instead of letting one file's classes shadow the other's.
    """
    report = analyze_paths(
        [CORPUS / "lock_order_bad.py", CORPUS / "lock_order_clean.py"],
        rules=["lock-order"],
        root=REPO_ROOT,
    )
    paths = {f.path for f in report.findings}
    assert len(report.findings) == 2, report.render()
    assert all(p.endswith("lock_order_bad.py") for p in paths)


def test_cancellation_findings_name_the_swallowed_exceptions():
    report = _run("cancellation-hygiene", "cancellation_bad.py")
    for finding in report.findings:
        assert "DeadlineExceededError" in finding.message


def test_exception_hierarchy_suggests_project_replacement():
    report = _run("exception-hierarchy", "exception_hierarchy_bad.py")
    messages = " ".join(f.message for f in report.findings)
    assert "InvalidParameterError" in messages


def test_lockset_race_names_all_three_bug_families():
    report = _run("lockset-race", "lockset_race_bad.py")
    messages = sorted(f.message for f in report.findings)
    assert any("empty lockset" in m and "mutates" in m for m in messages)
    assert any("unlocked dereference" in m for m in messages)
    assert any("_flush_locked" in m for m in messages)


def test_lockset_race_sees_through_always_held_helpers():
    """A plain-named helper whose every call site holds the lock is not
    a race, even though no ``with`` encloses its mutation."""
    clean = CORPUS / "lockset_race_clean.py"
    race = analyze_paths([clean], rules=["lockset-race"], root=REPO_ROOT)
    assert race.findings == [], race.render()
    # The fixture must exhibit the case: only the fixpoint vouches for it.
    module = load_module(clean, root=REPO_ROOT)
    flow = ProjectFlow(ProjectContext(root=REPO_ROOT, modules=[module]))
    (cls,) = flow.classes.values()
    helper = cls.methods["_append_impl"]
    assert not flow.holds_own_lock(helper, helper.node.body[0])
    assert "_append_impl" in flow.always_locked_methods(cls.qname)


def test_lockset_race_flags_unlocked_writes_outside_any_helper():
    """``lock_discipline_*.py`` seed plain unlocked writes: both racy
    mutations in ``forget()`` fire, and the locked twin stays silent."""
    bad = _run("lockset-race", "lock_discipline_bad.py")
    assert [(f.line, "empty lockset" in f.message) for f in bad.findings] == [
        (20, True),
        (21, True),
    ], bad.render()
    clean = _run("lockset-race", "lock_discipline_clean.py")
    assert clean.findings == [], clean.render()


def test_durability_flags_both_raw_io_and_unfsynced_acks():
    report = _run("durability-protocol", "durability_protocol_bad.py")
    messages = sorted(f.message for f in report.findings)
    assert any("raw open" in m for m in messages)
    assert any("os.replace" in m for m in messages)
    assert sum("not dominated" in m for m in messages) == 2


def test_epoch_fence_distinguishes_compare_and_merge():
    report = _run("epoch-fence", "epoch_fence_bad.py")
    messages = sorted(f.message for f in report.findings)
    assert any("unfenced epoch comparison" in m for m in messages)
    assert any("max() over epochs" in m for m in messages)
    assert any("arithmetic combining" in m for m in messages)


def test_deadline_propagation_names_drop_and_decorative_sites():
    report = _run("deadline-propagation", "deadline_propagation_bad.py")
    messages = sorted(f.message for f in report.findings)
    assert any("never reads it" in m for m in messages)
    assert any("without passing it" in m for m in messages)
