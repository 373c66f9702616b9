"""The online scrubber: incremental verification, budgets, rate limiting,
auto-quarantine, and metrics."""

from __future__ import annotations

import pytest

from repro import observability
from repro.context import Context, Deadline
from repro.datasets import clustered_dataset
from repro.mtree import bulk_load, vector_layout
from repro.reliability import (
    QuarantineSet,
    Scrubber,
    StructuralFaultInjector,
    fsck_vptree,
    mtree_scrub_units,
)
from repro.service import TokenBucket
from repro.vptree import VPTree


@pytest.fixture(autouse=True)
def clean_observability():
    observability.uninstall()
    yield
    observability.uninstall()


def make_mtree(size=300, dim=3, seed=0):
    data = clustered_dataset(size=size, dim=dim, seed=seed)
    tree = bulk_load(data.points, data.metric, vector_layout(dim), seed=seed)
    return data, tree


def test_full_pass_on_clean_tree():
    _, tree = make_mtree()
    scrubber = Scrubber(tree)
    progress = scrubber.run(passes=1)
    assert progress.complete
    assert progress.passes == 1
    assert progress.nodes_total == len(mtree_scrub_units(tree))
    # nodes_scrubbed is the position within the current pass; a finished
    # pass wraps it back to zero, and the cumulative count lives in the
    # report.
    assert progress.nodes_scrubbed == 0
    assert progress.faults_found == 0
    report = scrubber.report()
    assert report.ok
    assert report.nodes_checked == progress.nodes_total
    doc = progress.to_dict()
    assert doc["complete"] is True and doc["faults_found"] == 0


def test_detects_and_quarantines_damage():
    _, tree = make_mtree()
    StructuralFaultInjector(seed=0).shrink_radius(tree)
    quarantine = QuarantineSet()
    scrubber = Scrubber(tree, quarantine=quarantine)
    progress = scrubber.run(passes=1)
    assert progress.faults_found > 0
    assert len(quarantine) >= 1
    assert progress.quarantined == len(quarantine)
    report = scrubber.report()
    assert not report.ok
    assert "radius_violation" in report.kinds()
    # Quarantined damage shows up in query completeness accounting.
    result = tree.range_query(
        [0.5, 0.5, 0.5], 2.0, quarantine=quarantine
    )
    assert result.completeness < 1.0
    assert result.skipped_objects > 0


def test_auto_quarantine_can_be_disabled():
    _, tree = make_mtree()
    StructuralFaultInjector(seed=0).shrink_radius(tree)
    quarantine = QuarantineSet()
    scrubber = Scrubber(tree, quarantine=quarantine, auto_quarantine=False)
    progress = scrubber.run(passes=1)
    assert progress.faults_found > 0
    assert len(quarantine) == 0


def test_max_nodes_stops_and_resumes():
    _, tree = make_mtree(size=900)
    scrubber = Scrubber(tree)
    total = len(mtree_scrub_units(tree))
    assert total > 3
    progress = scrubber.run(max_nodes=3)
    assert progress.nodes_scrubbed == 3
    assert not progress.complete
    progress = scrubber.run(passes=1)
    assert progress.complete
    # The resumed run continued the same pass: one full sweep in total.
    assert scrubber.report().nodes_checked == total


def test_expired_deadline_stops_cleanly():
    _, tree = make_mtree()
    scrubber = Scrubber(tree)
    progress = scrubber.run(budget=Deadline.after(0.0), passes=1)
    assert progress.nodes_scrubbed == 0
    assert not progress.complete
    # A later unbudgeted run picks up where the expired one stopped.
    assert scrubber.run(passes=1).complete


def test_cancelled_context_stops_cleanly():
    _, tree = make_mtree()
    context = Context()
    context.cancel()
    scrubber = Scrubber(tree)
    progress = scrubber.run(budget=context, passes=1)
    assert progress.nodes_scrubbed == 0


def test_rate_limit_paces_with_injected_clock():
    _, tree = make_mtree()
    now = [0.0]
    sleeps = []

    def clock():
        return now[0]

    def fake_sleep(seconds):
        sleeps.append(seconds)
        now[0] += seconds

    # Burst of 2 tokens, then 100 tokens/s: every node past the burst
    # must wait for the bucket to refill on the fake clock.
    bucket = TokenBucket(rate=100.0, capacity=2.0, clock=clock)
    scrubber = Scrubber(tree, rate_limit=bucket, sleep=fake_sleep)
    progress = scrubber.run(passes=1)
    assert progress.complete
    assert scrubber.report().ok
    total = progress.nodes_total
    assert total > 2
    assert len(sleeps) > 0
    # Refilling (total - burst) tokens at 100/s takes at least this long.
    assert sum(sleeps) >= (total - 2) / 100.0 - 1e-9


def test_rate_limited_scrub_respects_budget_while_waiting():
    _, tree = make_mtree()
    now = [0.0]

    def clock():
        return now[0]

    def fake_sleep(seconds):
        now[0] += seconds

    # A bucket that never refills enough: the budget must still end it.
    bucket = TokenBucket(rate=1e-6, capacity=1.0, clock=clock)
    deadline = Deadline(expires_at=0.5, budget_s=0.5, clock=clock)
    scrubber = Scrubber(tree, rate_limit=bucket, sleep=fake_sleep)
    progress = scrubber.run(budget=deadline, passes=1)
    assert not progress.complete
    assert progress.nodes_scrubbed <= 1


def test_multiple_passes_accumulate():
    _, tree = make_mtree(size=120)
    scrubber = Scrubber(tree)
    progress = scrubber.run(passes=3)
    assert progress.passes == 3
    assert scrubber.report().nodes_checked == 3 * progress.nodes_total


def test_reset_after_mutation():
    _, tree = make_mtree(size=150, seed=4)
    scrubber = Scrubber(tree)
    scrubber.run(passes=1)
    import numpy as np

    rng = np.random.default_rng(11)
    for oid in range(150, 180):
        tree.insert(rng.random(3), oid)
    scrubber.reset()
    progress = scrubber.run(passes=1)
    assert progress.nodes_total == len(mtree_scrub_units(tree))
    assert scrubber.report().ok


def test_scrubs_vptrees_too():
    data = clustered_dataset(size=250, dim=3, seed=5)
    tree = VPTree.build(list(data.points), data.metric, arity=3, seed=5)
    quarantine = QuarantineSet()
    scrubber = Scrubber(tree, quarantine=quarantine)
    assert scrubber.run(passes=1).complete
    assert scrubber.report().ok
    StructuralFaultInjector(seed=5).shrink_cutoff(tree)
    scrubber.reset()
    scrubber.run(passes=1)
    report = scrubber.report()
    assert "cutoff_violation" in report.kinds()
    assert len(quarantine) >= 1


def test_vptree_pass_ends_with_the_whole_tree_checks():
    # A duplicated oid lies in no single node, so only the end-of-pass
    # check that fsck_vptree also runs can see it.
    data = clustered_dataset(size=250, dim=3, seed=5)
    tree = VPTree.build(list(data.points), data.metric, arity=3, seed=5)
    tree.root.children[0].oid = tree.root.oid
    scrubber = Scrubber(tree, auto_quarantine=False)
    scrubber.run(passes=1)
    assert scrubber.report().kinds() == fsck_vptree(tree).kinds()
    assert "duplicate_oid" in scrubber.report().kinds()


def test_scrub_metrics_mirrored():
    registry = observability.install()
    _, tree = make_mtree()
    StructuralFaultInjector(seed=0).shrink_radius(tree)
    quarantine = QuarantineSet()
    scrubber = Scrubber(tree, quarantine=quarantine)
    progress = scrubber.run(passes=1)
    assert (
        registry.counter_total("reliability.scrub_nodes")
        == scrubber.report().nodes_checked
        == progress.nodes_total
    )
    assert registry.counter_total("reliability.scrub_faults") >= 1
    assert registry.counter_value(
        "reliability.scrub_faults", kind="radius_violation"
    ) >= 1
    assert registry.gauge_value("reliability.scrub_progress") == (
        progress.fraction
    )
    assert registry.gauge_value("reliability.quarantined_nodes") == len(
        quarantine
    )
