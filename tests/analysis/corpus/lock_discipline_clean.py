"""Lock conventions done right: no lockset-race findings expected."""

import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._events = []
        self.total = 0

    def record(self, event):
        with self._lock:
            self._events.append(event)
            self.total += 1

    def forget(self, event):
        with self._lock:
            self._events.remove(event)
            self.total -= 1

    def _drain_locked(self):
        # The `_locked` suffix says the caller holds the lock.
        self._events.clear()
        self.total = 0

    def snapshot(self):
        with self._lock:
            return list(self._events), self.total
