"""Seeded lockset-race violations: plain writes outside the lock."""

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
        # Both mutations race record(): _events and total are guarded
        # state (mutated under the lock above) but no lock is held here.
        self._events.remove(event)
        self.total -= 1
