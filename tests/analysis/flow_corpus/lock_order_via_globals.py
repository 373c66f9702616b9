"""A lock-acquisition cycle that runs only through annotated globals.

Neither lock owner holds a reference to the other: each reaches its
peer through a module-level global typed by its annotation, once
directly and once through a local alias.  Only a call graph that types
annotated globals sees the two edges.
"""

import threading
from typing import Optional


class Inventory:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def restock(self, n):
        with self._lock:
            self.count += n
            # Holding Inventory's lock, acquire OrderBook's: edge I -> O.
            book = orders
            if book is not None:
                book.record(n)


class OrderBook:
    def __init__(self):
        self._lock = threading.Lock()
        self.lines = []

    def record(self, n):
        with self._lock:
            self.lines.append(n)

    def cancel(self):
        with self._lock:
            self.lines.clear()
            # Holding OrderBook's lock, acquire Inventory's: edge O -> I.
            if inventory is not None:
                inventory.restock(-1)


inventory: Optional[Inventory] = None
orders: Optional[OrderBook] = None
