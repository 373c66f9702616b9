"""Bounded retry with exponential backoff and jitter.

Transient faults (a flaky page read, a filesystem hiccup while loading a
statistics artifact) should cost a retry, not a query.  A
:class:`RetryPolicy` owns the schedule — capped exponential backoff with
uniform jitter — plus per-call accounting: every failed attempt is logged
as a :class:`RetryAttempt`, and when the budget is spent the whole log
rides on the raised :class:`~repro.exceptions.RetryExhaustedError`.

The sleep function is injectable so tests and benches can retry without
actually waiting.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple, Type

from ..exceptions import (
    DeadlineExceededError,
    InvalidParameterError,
    IOFaultError,
    OperationCancelledError,
    RetryExhaustedError,
)
from ..observability import state as _obs

__all__ = ["RetryAttempt", "RetryStats", "RetryPolicy", "RetryingPageStore"]


@dataclass(frozen=True)
class RetryAttempt:
    """One failed attempt: what broke and how long we backed off after."""

    number: int  # 1-based attempt index
    error: str  # "ExceptionType: message"
    delay_s: float  # backoff slept after this failure (0.0 for the last)


@dataclass
class RetryStats:
    """Cumulative accounting across every call through a policy."""

    calls: int = 0
    attempts: int = 0
    retries: int = 0
    exhausted: int = 0
    total_sleep_s: float = 0.0


class RetryPolicy:
    """Capped exponential backoff with uniform jitter.

    The delay after failed attempt ``i`` (1-based) is drawn uniformly from
    ``[raw * (1 - jitter), raw]`` where
    ``raw = min(max_delay_s, base_delay_s * multiplier**(i - 1))``.
    ``jitter=0`` gives a deterministic schedule; ``jitter=1`` spreads
    retries over the full ``[0, raw]`` window (decorrelating a thundering
    herd of query workers).

    Only exceptions in ``retry_on`` are retried; anything else propagates
    immediately, and so do deadline and cancellation errors, which say
    the caller's budget ran out (a
    :class:`~repro.exceptions.DeadlineExceededError` is a
    ``TimeoutError``, so an ``OSError`` in ``retry_on`` would match it).
    When ``max_attempts`` is spent the policy raises
    :class:`RetryExhaustedError` carrying the attempt log, chained to the
    final underlying error.
    """

    def __init__(
        self,
        max_attempts: int = 4,
        base_delay_s: float = 0.01,
        max_delay_s: float = 2.0,
        multiplier: float = 2.0,
        jitter: float = 0.5,
        retry_on: Tuple[Type[BaseException], ...] = (IOFaultError, OSError),
        seed: Optional[int] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        if max_attempts < 1:
            raise InvalidParameterError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if base_delay_s < 0 or max_delay_s < 0:
            raise InvalidParameterError(
                f"delays must be >= 0, got base={base_delay_s}, "
                f"max={max_delay_s}"
            )
        if multiplier < 1.0:
            raise InvalidParameterError(
                f"multiplier must be >= 1, got {multiplier}"
            )
        if not (0.0 <= jitter <= 1.0):
            raise InvalidParameterError(
                f"jitter must lie in [0, 1], got {jitter}"
            )
        self.max_attempts = max_attempts
        self.base_delay_s = base_delay_s
        self.max_delay_s = max_delay_s
        self.multiplier = multiplier
        self.jitter = jitter
        self.retry_on = tuple(retry_on)
        self._rng = random.Random(seed)
        self._sleep = sleep if sleep is not None else time.sleep
        self.stats = RetryStats()

    def backoff_delay(self, attempt_number: int) -> float:
        """Jittered delay to sleep after failed attempt ``attempt_number``."""
        raw = min(
            self.max_delay_s,
            self.base_delay_s * self.multiplier ** (attempt_number - 1),
        )
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        return raw * (1.0 - self.jitter * self._rng.random())

    def call(
        self,
        fn: Callable[..., Any],
        *args: Any,
        deadline: Optional[Any] = None,
        **kwargs: Any,
    ) -> Any:
        """Invoke ``fn`` under this policy; return its first success.

        ``deadline`` (a :class:`~repro.context.Deadline` or
        :class:`~repro.context.Context`) bounds the whole call: every
        backoff sleep is capped at the remaining budget, and an exhausted
        budget raises
        :class:`~repro.exceptions.DeadlineExceededError` (chained to the
        last underlying fault) instead of sleeping past it — a 50 ms
        deadline never sleeps a 500 ms schedule.
        """
        reg = _obs.registry
        attempts = []
        self.stats.calls += 1
        if reg is not None:
            reg.inc("retry.calls")
        for number in range(1, self.max_attempts + 1):
            if deadline is not None:
                deadline.check("retrying call")
            self.stats.attempts += 1
            if reg is not None:
                reg.inc("retry.attempts")
            try:
                return fn(*args, **kwargs)
            except (DeadlineExceededError, OperationCancelledError):
                raise
            except self.retry_on as exc:
                error = f"{type(exc).__name__}: {exc}"
                if number == self.max_attempts:
                    attempts.append(RetryAttempt(number, error, 0.0))
                    self.stats.exhausted += 1
                    if reg is not None:
                        reg.inc("retry.exhausted")
                    name = getattr(fn, "__name__", repr(fn))
                    raise RetryExhaustedError(
                        f"{name} still failing after {self.max_attempts} "
                        f"attempts (last error: {error})",
                        attempts=attempts,
                    ) from exc
                delay = self.backoff_delay(number)
                if deadline is not None:
                    remaining = deadline.remaining_s()
                    if remaining <= 0.0:
                        attempts.append(RetryAttempt(number, error, 0.0))
                        if reg is not None:
                            reg.inc("retry.deadline_exceeded")
                        raise DeadlineExceededError(
                            f"retry budget cut short by deadline after "
                            f"{number} attempt(s) (last error: {error})"
                        ) from exc
                    delay = min(delay, remaining)
                attempts.append(RetryAttempt(number, error, delay))
                self.stats.retries += 1
                self.stats.total_sleep_s += delay
                if reg is not None:
                    reg.inc("retry.retries")
                    reg.observe("retry.backoff_seconds", delay)
                self._sleep(delay)

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with this policy applied to every invocation."""

        def retried(*args: Any, **kwargs: Any) -> Any:
            return self.call(fn, *args, **kwargs)

        retried.__name__ = getattr(fn, "__name__", "retried")
        return retried


class RetryingPageStore:
    """Page-store front that retries faulting reads under a policy.

    Writes are deliberately *not* retried: re-issuing a write after an
    ambiguous failure can double-apply a torn page, so write faults
    propagate to the caller, which owns the recovery decision.

    ``deadline`` (per-read, or a store-wide default) bounds the retry
    schedule: backoff sleeps are capped at the remaining budget and an
    exhausted budget raises
    :class:`~repro.exceptions.DeadlineExceededError` instead of sleeping
    on (see :meth:`RetryPolicy.call`).
    """

    def __init__(
        self,
        inner: Any,
        policy: RetryPolicy,
        deadline: Optional[Any] = None,
    ):
        self.inner = inner
        self.policy = policy
        self.deadline = deadline

    @property
    def page_size_bytes(self) -> int:
        return self.inner.page_size_bytes

    @property
    def buffer_pages(self) -> int:
        return self.inner.buffer_pages

    @property
    def stats(self):
        return self.inner.stats

    def __len__(self) -> int:
        return len(self.inner)

    def reset_stats(self) -> None:
        self.inner.reset_stats()

    def allocate(self, payload: Any) -> int:
        return self.inner.allocate(payload)

    def write(self, page_id: int, payload: Any) -> None:
        self.inner.write(page_id, payload)

    def read(self, page_id: int, deadline: Optional[Any] = None) -> Any:
        budget = deadline if deadline is not None else self.deadline
        return self.policy.call(self.inner.read, page_id, deadline=budget)
