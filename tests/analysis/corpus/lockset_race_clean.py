"""Lockset-race clean corpus: consistent locksets, interprocedurally.

``_append_impl`` is a plain-named helper mutating guarded state, but
every one of its call sites holds the lock — the flow core's
always-held fixpoint proves it, so lockset-race stays silent where a
same-method heuristic (is the write under a ``with``?) cannot see past
the function boundary.
"""

import threading


class SafeHolder:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = []
        self._wal = open("/dev/null")

    def clear(self):
        with self._lock:
            self._items = []

    def add(self, item):
        with self._lock:
            self._append_impl(item)

    def _append_impl(self, item):
        self._items.append(item)

    def _flush_locked(self):
        self._items.clear()

    def flush(self):
        with self._lock:
            self._flush_locked()

    def checkpoint(self):
        # Snapshot-then-use: one plain read under the lock, then the
        # local is dereferenced — no race with a concurrent rebind.
        with self._lock:
            wal = self._wal
        return wal.fileno()

    def reopen(self):
        with self._lock:
            self._wal = open("/dev/null")
