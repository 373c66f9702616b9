"""The one epoch fence: pin a snapshot, publish by compare-and-swap.

A reader pins the current immutable snapshot once and answers exactly
from it, however long it runs.  A writer publishes a replacement under
a strictly increasing epoch, and only if the epoch it started from is
still current.  The cluster membership and the ingest tree view each
live in an :class:`EpochCell`; this module is the only place that
raises :class:`~repro.exceptions.StaleEpochError`.
"""

from __future__ import annotations

import threading
from typing import Generic, Optional, Protocol, TypeVar

from ..exceptions import StaleEpochError

__all__ = ["EpochCell"]


class _Stamped(Protocol):
    @property
    def epoch(self) -> int: ...


T = TypeVar("T", bound=_Stamped)


class EpochCell(Generic[T]):
    """One snapshot stamped with an epoch, swapped by CAS.

    Readers use the value without a lock, so it must not change after
    it is published, apart from members that synchronise themselves.
    """

    def __init__(self, value: T):
        self._lock = threading.Lock()
        self._value = value

    def snapshot(self) -> T:
        """The current snapshot (its ``epoch`` names it); pin it."""
        with self._lock:
            return self._value

    def publish(self, value: T, expect: Optional[int] = None) -> T:
        """Install ``value`` as the current snapshot.

        Raises :class:`~repro.exceptions.StaleEpochError` when ``expect``
        is given and is no longer the current epoch (the writer worked
        from a superseded snapshot), or when ``value.epoch`` does not
        exceed the current epoch.  Returns ``value``.
        """
        with self._lock:
            current = self._value
            if expect is not None and current.epoch != expect:
                raise StaleEpochError(
                    f"publish based on epoch {expect}, but epoch "
                    f"{current.epoch} is now current",
                    epoch=current.epoch,
                )
            if value.epoch <= current.epoch:
                raise StaleEpochError(
                    f"epochs must increase: current {current.epoch}, "
                    f"proposed {value.epoch}",
                    epoch=current.epoch,
                )
            self._value = value
        return value

    def require(self, epoch: int) -> T:
        """The current snapshot if it still carries ``epoch``; raises
        :class:`~repro.exceptions.StaleEpochError` once it has moved on
        (callers re-pin and retry)."""
        current = self.snapshot()
        if current.epoch != epoch:
            raise StaleEpochError(
                f"epoch {epoch} superseded by {current.epoch}",
                epoch=current.epoch,
            )
        return current
