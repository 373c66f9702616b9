"""Tests for bounded exponential backoff with jitter and accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import (
    DeadlineExceededError,
    InvalidParameterError,
    IOFaultError,
    OperationCancelledError,
    RetryExhaustedError,
)
from repro.reliability import (
    FaultPolicy,
    FaultyPageStore,
    RetryingPageStore,
    RetryPolicy,
)
from repro.storage import PageStore


def _no_sleep(_delay: float) -> None:
    pass


class _Flaky:
    """Callable failing the first ``n_failures`` invocations."""

    def __init__(self, n_failures: int, error=IOFaultError("transient")):
        self.remaining = n_failures
        self.error = error
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise self.error
        return "ok"


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay_s": -1.0},
            {"max_delay_s": -0.1},
            {"multiplier": 0.5},
            {"jitter": 1.5},
            {"jitter": -0.1},
        ],
    )
    def test_bad_parameters(self, kwargs):
        with pytest.raises(InvalidParameterError):
            RetryPolicy(**kwargs)


class TestCall:
    def test_first_try_success_costs_nothing(self):
        policy = RetryPolicy(sleep=_no_sleep)
        assert policy.call(lambda: 42) == 42
        assert policy.stats.calls == 1
        assert policy.stats.attempts == 1
        assert policy.stats.retries == 0

    def test_transient_failure_recovers(self):
        flaky = _Flaky(2)
        policy = RetryPolicy(max_attempts=4, seed=1, sleep=_no_sleep)
        assert policy.call(flaky) == "ok"
        assert flaky.calls == 3
        assert policy.stats.retries == 2
        assert policy.stats.exhausted == 0

    def test_exhaustion_raises_with_attempt_log(self):
        policy = RetryPolicy(max_attempts=3, seed=2, sleep=_no_sleep)
        with pytest.raises(RetryExhaustedError) as excinfo:
            policy.call(_Flaky(99))
        error = excinfo.value
        assert len(error.attempts) == 3
        assert [a.number for a in error.attempts] == [1, 2, 3]
        assert all("IOFaultError" in a.error for a in error.attempts)
        assert error.attempts[-1].delay_s == 0.0  # no sleep after last try
        assert isinstance(error.__cause__, IOFaultError)
        assert policy.stats.exhausted == 1

    def test_non_retryable_error_propagates_immediately(self):
        flaky = _Flaky(1, error=KeyError("not retryable"))
        policy = RetryPolicy(max_attempts=5, sleep=_no_sleep)
        with pytest.raises(KeyError):
            policy.call(flaky)
        assert flaky.calls == 1

    @pytest.mark.parametrize(
        "error",
        [DeadlineExceededError("budget"), OperationCancelledError("stop")],
    )
    def test_caller_budget_errors_are_never_retried(self, error):
        # A DeadlineExceededError is a TimeoutError, which the default
        # retry_on matches through OSError.
        flaky = _Flaky(1, error=error)
        policy = RetryPolicy(max_attempts=5, sleep=_no_sleep)
        with pytest.raises(type(error)):
            policy.call(flaky)
        assert flaky.calls == 1
        assert policy.stats.retries == 0

    def test_custom_retry_on(self):
        flaky = _Flaky(1, error=KeyError("now retryable"))
        policy = RetryPolicy(
            max_attempts=3, retry_on=(KeyError,), sleep=_no_sleep
        )
        assert policy.call(flaky) == "ok"

    def test_wrap(self):
        flaky = _Flaky(1)
        policy = RetryPolicy(max_attempts=2, sleep=_no_sleep)
        wrapped = policy.wrap(flaky)
        assert wrapped() == "ok"


class TestBackoff:
    def test_deterministic_without_jitter(self):
        policy = RetryPolicy(
            base_delay_s=0.1, multiplier=2.0, max_delay_s=10.0, jitter=0.0
        )
        assert [policy.backoff_delay(i) for i in (1, 2, 3, 4)] == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.4),
            pytest.approx(0.8),
        ]

    def test_capped_at_max_delay(self):
        policy = RetryPolicy(
            base_delay_s=1.0, multiplier=10.0, max_delay_s=2.5, jitter=0.0
        )
        assert policy.backoff_delay(5) == pytest.approx(2.5)

    def test_jitter_window(self):
        policy = RetryPolicy(
            base_delay_s=1.0, multiplier=1.0, jitter=0.5, seed=3
        )
        delays = [policy.backoff_delay(1) for _ in range(200)]
        assert all(0.5 <= d <= 1.0 for d in delays)
        assert len(set(delays)) > 1  # actually jittered

    def test_sleep_receives_backoff_delays(self):
        slept = []
        policy = RetryPolicy(
            max_attempts=4,
            base_delay_s=0.1,
            multiplier=2.0,
            jitter=0.0,
            sleep=slept.append,
        )
        policy.call(_Flaky(3))
        assert slept == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.4),
        ]
        assert policy.stats.total_sleep_s == pytest.approx(0.7)


class TestRetryingPageStore:
    def test_recovers_transient_read_faults(self):
        inner = PageStore(page_size_bytes=4096)
        faulty = FaultyPageStore(
            inner, FaultPolicy(read_fail_rate=0.4, seed=9)
        )
        store = RetryingPageStore(
            faulty, RetryPolicy(max_attempts=20, seed=9, sleep=_no_sleep)
        )
        payloads = [np.full(4, float(i)) for i in range(30)]
        ids = [store.allocate(p) for p in payloads]
        for page_id, payload in zip(ids, payloads):
            np.testing.assert_array_equal(store.read(page_id), payload)

    def test_exhaustion_surfaces(self):
        inner = PageStore(page_size_bytes=4096)
        faulty = FaultyPageStore(
            inner, FaultPolicy(read_fail_rate=1.0, seed=9)
        )
        store = RetryingPageStore(
            faulty, RetryPolicy(max_attempts=3, sleep=_no_sleep)
        )
        page = store.allocate(1.0)
        with pytest.raises(RetryExhaustedError) as excinfo:
            store.read(page)
        assert len(excinfo.value.attempts) == 3

    def test_delegates_surface(self):
        inner = PageStore(page_size_bytes=512, buffer_pages=2)
        store = RetryingPageStore(
            FaultyPageStore(inner, FaultPolicy()),
            RetryPolicy(sleep=_no_sleep),
        )
        page = store.allocate("payload")
        store.write(page, "updated")
        assert store.read(page) == "updated"
        assert store.page_size_bytes == 512
        assert store.buffer_pages == 2
        assert len(store) == 1
        assert store.stats.writes == 2
        store.reset_stats()
        assert store.stats.writes == 0
