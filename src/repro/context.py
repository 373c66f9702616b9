"""Deadlines and cooperative cancellation for query execution.

The cost model predicts that individual metric queries can degenerate to
near-linear cost in adverse regimes (high dimensionality, large radii —
see also Pestov's lower bounds, arXiv:0812.0146).  A serving system must
therefore bound *time*, not just I/O: a :class:`Deadline` carries an
absolute expiry on a monotonic clock, and a :class:`Context` adds a
thread-safe cancellation flag.  Both are threaded through the M-tree and
vp-tree traversals, the optimizer ladder, and the retrying page store,
which poll :meth:`check` at natural checkpoints (one per node pop, one
per retry attempt) and raise
:class:`~repro.exceptions.DeadlineExceededError` /
:class:`~repro.exceptions.OperationCancelledError` instead of running on.

Checkpoints are deliberately cheap — a subtraction and a comparison — so
an unbounded query (``deadline=None``) pays a single ``is None`` test.

The clock is injectable (``clock=time.monotonic`` by default) so tests
can exercise expiry without sleeping.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from .exceptions import (
    DeadlineExceededError,
    InvalidParameterError,
    OperationCancelledError,
)

__all__ = ["Deadline", "Context"]

Clock = Callable[[], float]


class Deadline:
    """An absolute expiry instant on a monotonic clock.

    Immutable and safe to share across threads: every accessor reads the
    clock and compares against the fixed expiry.  ``budget_s`` remembers
    the originally granted budget for error messages and accounting.
    """

    __slots__ = ("expires_at", "budget_s", "_clock")

    def __init__(
        self,
        expires_at: float,
        budget_s: Optional[float] = None,
        clock: Clock = time.monotonic,
    ):
        self.expires_at = float(expires_at)
        self.budget_s = budget_s
        self._clock = clock

    @classmethod
    def after(
        cls, seconds: float, clock: Clock = time.monotonic
    ) -> "Deadline":
        """A deadline ``seconds`` from now (on ``clock``)."""
        if seconds < 0:
            raise InvalidParameterError(
                f"deadline budget must be >= 0, got {seconds}"
            )
        return cls(clock() + seconds, budget_s=seconds, clock=clock)

    @classmethod
    def after_ms(
        cls, ms: float, clock: Clock = time.monotonic
    ) -> "Deadline":
        """A deadline ``ms`` milliseconds from now."""
        return cls.after(ms / 1000.0, clock=clock)

    def remaining_s(self) -> float:
        """Seconds left before expiry; never negative (0.0 when expired)."""
        return max(0.0, self.expires_at - self._clock())

    @property
    def expired(self) -> bool:
        return self._clock() >= self.expires_at

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is spent."""
        if self._clock() >= self.expires_at:
            budget = (
                f" (budget {self.budget_s * 1e3:.0f} ms)"
                if self.budget_s is not None
                else ""
            )
            raise DeadlineExceededError(
                f"{what} exceeded its deadline{budget}",
                deadline_s=self.budget_s,
            )

    def __repr__(self) -> str:
        return (
            f"Deadline(remaining={self.remaining_s() * 1e3:.1f} ms, "
            f"budget={self.budget_s})"
        )


class Context:
    """A cancellation flag plus an optional :class:`Deadline`.

    ``cancel()`` may be called from any thread; the running query observes
    it at its next checkpoint.  A ``Context`` quacks like a ``Deadline``
    (``check`` / ``remaining_s`` / ``expired``) so every ``deadline=``
    parameter in the library accepts either.
    """

    __slots__ = ("deadline", "_cancelled")

    def __init__(self, deadline: Optional[Deadline] = None):
        self.deadline = deadline
        self._cancelled = threading.Event()

    @classmethod
    def with_timeout(
        cls, seconds: float, clock: Clock = time.monotonic
    ) -> "Context":
        """A context whose deadline is ``seconds`` from now."""
        return cls(Deadline.after(seconds, clock=clock))

    def with_deadline(self, deadline: Deadline) -> "Context":
        """A context expiring at ``deadline`` that shares this one's
        cancellation flag; this context is left untouched."""
        child = Context(deadline)
        child._cancelled = self._cancelled
        return child

    def cancel(self) -> None:
        """Request cooperative cancellation (idempotent, thread-safe)."""
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    @property
    def expired(self) -> bool:
        if self._cancelled.is_set():
            return True
        return self.deadline is not None and self.deadline.expired

    def remaining_s(self) -> float:
        """Seconds left on the deadline (infinity when none is set)."""
        if self.deadline is None:
            return float("inf")
        return self.deadline.remaining_s()

    def check(self, what: str = "operation") -> None:
        """Raise if cancelled or past the deadline."""
        if self._cancelled.is_set():
            raise OperationCancelledError(f"{what} was cancelled")
        if self.deadline is not None:
            self.deadline.check(what)

    def __repr__(self) -> str:
        return (
            f"Context(cancelled={self.cancelled}, deadline={self.deadline})"
        )
