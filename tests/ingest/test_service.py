"""IngestService: acked-exactly-once, kill-at-every-step, snapshot reads."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.exceptions import (
    InvalidParameterError,
    OverloadError,
    StaleEpochError,
)
from repro.ingest import IngestService
from repro.metrics import L2
from repro.mtree import vector_layout
from repro.reliability import WalFaultInjector, fsck_ingest
from repro.service import AdmissionController, SimulatedCrashError, TokenBucket

LAYOUT = vector_layout(3, node_size_bytes=512)


def _service(directory, **kwargs):
    service = IngestService(directory, L2(), LAYOUT, **kwargs)
    service.recover()
    return service


@pytest.fixture
def fine_switching():
    """Switch threads often, so racing threads interleave finely."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(previous)


def _points(n, seed=3):
    return np.random.default_rng(seed).random((n, 3))


def _assert_exactly(view, points, n):
    """The view holds exactly ``points[:n]``, each present exactly once."""
    assert len(view) == n
    view.tree.validate()
    oids = sorted(
        oid for node in view.tree.iter_nodes() if node.is_leaf
        for oid in (entry.oid for entry in node.entries)
    )
    assert oids == list(range(n))
    # Spot-check contents: a zero-radius query around each of a few
    # originals finds its oid.
    for i in range(0, n, max(1, n // 7)):
        hits = view.tree.range_query(points[i], 1e-9).oids()
        assert i in hits


class TestLifecycle:
    def test_append_apply_publish(self, tmp_path):
        points = _points(30)
        service = _service(tmp_path)
        ack = service.append(points[:20])
        assert (ack.first_seq, ack.last_seq) == (1, 20)
        assert ack.durable  # fsync defaults to "always"
        assert service.pending_count() == 20
        before = service.view()
        outcome = service.apply()
        assert outcome.applied == 20
        assert outcome.pending_left == 0
        # The pre-apply view is immutable: publishing never mutates it.
        assert len(before) == 0
        view = service.view()
        assert view.epoch == before.epoch + 1
        _assert_exactly(view, points, 20)
        service.close()

    def test_partial_apply_keeps_order(self, tmp_path):
        points = _points(25)
        service = _service(tmp_path)
        service.append(points)
        outcome = service.apply(max_objects=10)
        assert outcome.applied == 10
        assert outcome.pending_left == 15
        _assert_exactly(service.view(), points, 10)
        service.apply()
        _assert_exactly(service.view(), points, 25)
        service.close()

    def test_stale_epoch_fencing(self, tmp_path):
        points = _points(6)
        service = _service(tmp_path)
        pinned = service.view()
        service.append(points)
        service.apply()
        assert service.current_epoch() == pinned.epoch + 1
        with pytest.raises(StaleEpochError):
            service.require_epoch(pinned.epoch)
        service.require_epoch(service.current_epoch())
        service.close()

    def test_publish_from_superseded_base_is_rejected(self, tmp_path):
        points = _points(6)
        service = _service(tmp_path)
        base = service.view()
        service.append(points)
        service.apply()
        current = service.view()
        with pytest.raises(StaleEpochError):
            service._publish(base, base.tree.clone(), base.seq)
        assert service.view() is current
        service.close()

    def test_concurrent_first_views_open_once(self, tmp_path, fine_switching):
        points = _points(200)
        writer = _service(tmp_path)
        writer.append(points)
        writer.close()
        service = IngestService(tmp_path, L2(), LAYOUT)
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        views, errors = [], []

        def open_and_read():
            barrier.wait()
            try:
                views.append(service.view())
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=open_and_read) for _ in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # One recovery served every caller: one view, one epoch.
        assert len({id(view) for view in views}) == 1
        _assert_exactly(views[0], points, len(points))
        service.close()

    def test_close_racing_reopen_keeps_acked_records(
        self, tmp_path, fine_switching
    ):
        points = _points(20)
        service = _service(tmp_path)
        service.append(points)
        service.apply()
        errors = []

        def repeat(action):
            for _ in range(50):
                try:
                    action()
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

        threads = [
            threading.Thread(target=repeat, args=(action,))
            for action in (service.close, service.view)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # Whichever ran last, the next use serves every acked record,
        # and a checkpoint taken now keeps all of them.
        _assert_exactly(service.view(), points, len(points))
        service.checkpoint()
        service.close()
        survivor = _service(tmp_path)
        _assert_exactly(survivor.view(), points, len(points))
        survivor.close()

    def test_close_drops_the_tree_and_reopens_on_next_read(self, tmp_path):
        points = _points(8)
        service = _service(tmp_path)
        service.append(points)
        service.apply()
        pinned = service.view()
        service.close()
        assert len(service._view.snapshot()) == 0  # the tree is released
        assert len(pinned) == len(points)  # pinned readers keep theirs
        reopened = service.view()
        assert reopened.epoch > pinned.epoch
        _assert_exactly(reopened, points, len(points))
        service.close()

    def test_empty_append_rejected(self, tmp_path):
        service = _service(tmp_path)
        with pytest.raises(InvalidParameterError):
            service.append([])
        service.close()

    def test_apply_failures_are_reported_not_fatal(self, tmp_path):
        points = _points(40)
        service = _service(tmp_path)
        # Deep enough that every insert routes through distance
        # computations (a poison object in a lone root leaf is inert).
        service.append(points[:36])
        service.apply()
        extra = _points(3, seed=5)
        service.append([extra[0], "not-a-vector", extra[1], extra[2]])
        outcome = service.apply()
        assert outcome.applied == 3
        assert len(outcome.failures) == 1
        assert outcome.failures[0].index == 1
        # The poison seq still advances the high-water mark.
        assert outcome.seq == 40
        view = service.view()
        assert len(view) == 39
        view.tree.validate()
        service.close()


class TestBackpressure:
    def test_token_bucket_sheds_oversized_batches(self, tmp_path):
        service = _service(
            tmp_path, rate_limit=TokenBucket(rate=1.0, capacity=5.0)
        )
        points = _points(12)
        service.append(points[:5])  # within capacity
        with pytest.raises(OverloadError):
            service.append(points[5:])  # bucket drained
        # Nothing from the rejected batch was logged or applied.
        service.apply()
        assert len(service.view()) == 5
        service.close()

    def test_admission_controller_gates_appends(self, tmp_path):
        service = _service(
            tmp_path,
            admission=AdmissionController(max_concurrent=2, max_queue=4),
        )
        service.append(_points(10))
        service.apply()
        assert len(service.view()) == 10
        service.close()


class TestRecovery:
    def test_crash_before_apply_replays_acked(self, tmp_path):
        points = _points(18)
        service = _service(tmp_path)
        service.append(points)
        service.close()  # crash before apply: acked but never indexed
        survivor = IngestService(tmp_path, L2(), LAYOUT)
        recovery = survivor.recover()
        assert recovery.replayed == 18
        _assert_exactly(survivor.view(), points, 18)
        survivor.close()

    def test_double_recovery_is_idempotent(self, tmp_path):
        points = _points(14)
        service = _service(tmp_path)
        service.append(points)
        service.apply()
        service.checkpoint()
        service.close()
        for _ in range(2):
            survivor = IngestService(tmp_path, L2(), LAYOUT)
            recovery = survivor.recover()
            assert recovery.ok
            _assert_exactly(survivor.view(), points, 14)
            survivor.close()

    def test_duplicate_wal_records_replay_once(self, tmp_path):
        points = _points(12)
        service = _service(tmp_path)
        service.append(points)
        service.close()
        WalFaultInjector(tmp_path / "wal").duplicate_record(record=-1)
        WalFaultInjector(tmp_path / "wal").duplicate_record(record=3)
        survivor = IngestService(tmp_path, L2(), LAYOUT)
        recovery = survivor.recover()
        assert recovery.duplicates_skipped >= 2
        _assert_exactly(survivor.view(), points, 12)
        survivor.close()

    def test_torn_tail_drops_only_unacked_suffix(self, tmp_path):
        points = _points(10)
        service = _service(tmp_path)
        service.append(points)
        service.close()
        # Crash mid-append of record 10: the torn frame was never acked.
        WalFaultInjector(tmp_path / "wal").tear_tail(drop_bytes=7)
        survivor = IngestService(tmp_path, L2(), LAYOUT)
        recovery = survivor.recover()
        assert recovery.torn_tail
        _assert_exactly(survivor.view(), points, 9)
        survivor.close()

    def test_bit_flip_quarantined_and_fsck_sees_it(self, tmp_path):
        points = _points(16)
        service = _service(tmp_path)
        service.append(points)
        service.apply()
        service.checkpoint()
        service.append(_points(6, seed=9))
        service.close()
        WalFaultInjector(tmp_path / "wal").flip_bit(record=-2, bit=5)
        report = fsck_ingest(tmp_path)
        assert not report.ok
        assert any(f.kind == "wal_damage" for f in report.faults)
        survivor = IngestService(tmp_path, L2(), LAYOUT)
        recovery = survivor.recover()
        assert recovery.debris
        # Everything checkpointed plus the pre-flip suffix survives.
        assert len(survivor.view()) >= 16
        survivor.view().tree.validate()
        survivor.close()

    def test_kill_at_every_checkpoint_step(self, tmp_path):
        points = _points(24)
        probe = IngestService(tmp_path / "probe", L2(), LAYOUT)
        steps = probe.total_checkpoint_steps()
        probe.close()
        assert steps >= 5
        for step in range(steps):
            directory = tmp_path / f"kill-{step}"
            service = _service(directory)
            service.append(points[:16])
            service.apply()
            service.checkpoint()  # a committed generation to roll back to
            service.append(points[16:])
            service.apply()
            with pytest.raises(SimulatedCrashError):
                service.checkpoint(crash_after_step=step)
            service.close()
            survivor = IngestService(directory, L2(), LAYOUT)
            recovery = survivor.recover()
            assert not recovery.lost_ranges
            # Old-or-new, never in between: every acked insert present
            # exactly once regardless of where the checkpoint died.
            _assert_exactly(survivor.view(), points, 24)
            assert fsck_ingest(directory).ok
            survivor.close()

    def test_checkpoint_racing_close_fails_typed(self, tmp_path):
        """Regression for the checkpoint/close lockset race.

        checkpoint() used to re-read ``self._wal`` outside the lock
        after the generation save; a concurrent close() nulling the
        attribute turned the prune into an AssertionError on a torn
        read.  The fix snapshots the view *and* the WAL handle under
        one lock hold, so a close that lands mid-checkpoint surfaces
        as the WAL's typed closed error instead.
        """
        points = _points(12)
        service = _service(tmp_path)
        service.append(points)
        service.apply()
        real_save = service.store.save

        def save_then_close(artifacts, crash_after_step=None):
            generation = real_save(
                artifacts, crash_after_step=crash_after_step
            )
            service.close()  # the racing thread wins here
            return generation

        service.store.save = save_then_close
        with pytest.raises(InvalidParameterError, match="closed"):
            service.checkpoint()

    def test_recover_then_continue_appending(self, tmp_path):
        points = _points(20)
        service = _service(tmp_path)
        service.append(points[:10])
        service.close()
        survivor = _service(tmp_path)
        ack = survivor.append(points[10:])
        assert ack.first_seq == 11  # seqs continue past the replayed log
        survivor.apply()
        _assert_exactly(survivor.view(), points, 20)
        survivor.close()


class TestSnapshotIsolation:
    def test_queries_during_ingest_hammer(self, tmp_path):
        """Readers pin views while a writer grows the tree underneath.

        Every pinned view must answer ground-truth-exactly for the
        prefix it was published with — a reader can never see a
        half-applied batch or an object from a later epoch.
        """
        total, batch = 120, 12
        points = _points(total, seed=23)
        service = _service(tmp_path, fsync="never")
        service.append(points[:batch])
        service.apply()
        stop = threading.Event()
        failures = []

        def reader():
            rng = np.random.default_rng(threading.get_ident() % 2**16)
            while not stop.is_set():
                view = service.view()
                n = len(view)
                q = points[int(rng.integers(0, total))]
                radius = 0.35
                got = sorted(view.tree.range_query(q, radius).oids())
                truth = sorted(
                    i
                    for i in range(n)
                    if float(np.linalg.norm(points[i] - q)) <= radius
                )
                if got != truth or len(view) != n:
                    failures.append((view.epoch, got, truth))
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for lo in range(batch, total, batch):
                service.append(points[lo : lo + batch])
                service.apply()
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not failures
        _assert_exactly(service.view(), points, total)
        service.close()
