"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`MetricostError` so callers can catch
library failures without catching unrelated built-ins.
"""

from __future__ import annotations


class MetricostError(Exception):
    """Base class for every error raised by this library."""


class InvalidParameterError(MetricostError, ValueError):
    """A user-supplied parameter is outside its legal range."""


class EmptyDatasetError(MetricostError, ValueError):
    """An operation that needs data was given an empty dataset."""


class EmptyTreeError(MetricostError):
    """A query or statistics request was issued against an empty index."""


class CapacityError(MetricostError, ValueError):
    """A node size is too small to hold the minimum number of entries."""


class HistogramDomainError(MetricostError, ValueError):
    """A distance fell outside the declared ``[0, d_plus]`` domain."""


class IOFaultError(MetricostError, IOError):
    """A page read or write failed at the storage layer.

    Raised both for real device errors surfaced by a store and for faults
    injected by :class:`~repro.reliability.FaultPolicy` during chaos runs.
    """


class RetryExhaustedError(MetricostError):
    """Every attempt allowed by a :class:`~repro.reliability.RetryPolicy`
    failed.

    ``attempts`` holds the per-attempt log (a list of
    :class:`~repro.reliability.RetryAttempt`) so callers can see what was
    tried and how long each backoff waited.
    """

    def __init__(self, message: str, attempts=None):
        super().__init__(message)
        self.attempts = list(attempts) if attempts is not None else []


class CorruptedDataError(MetricostError):
    """A persisted artifact failed its integrity check on load.

    ``offset`` is the byte offset of the first detected mismatch within
    the artifact body (``None`` when the corruption cannot be localised,
    e.g. the file is not parseable at all).
    """

    def __init__(self, message: str, offset=None):
        super().__init__(message)
        self.offset = offset


class FormatVersionError(MetricostError, ValueError):
    """A persisted artifact declares a format version this library cannot
    read; the message names the expected and found versions."""


class StructuralCorruptionError(MetricostError):
    """An index failed a structural (geometric) integrity check.

    Raised by :meth:`~repro.reliability.FsckReport.raise_if_bad` when a
    fsck walk found invariant violations — covering radii that no longer
    contain their subtree, skewed stored parent distances, dropped
    entries, orphan or doubly-referenced pages.  Unlike
    :class:`CorruptedDataError` (bytes failed a checksum) this means the
    bytes are fine but the *semantics* are not: queries against the index
    may silently drop results.  ``faults`` holds the typed
    :class:`~repro.reliability.StructuralFault` list.
    """

    def __init__(self, message: str, faults=None):
        super().__init__(message)
        self.faults = list(faults) if faults is not None else []


class DeadlineExceededError(MetricostError, TimeoutError):
    """An operation ran past its :class:`~repro.context.Deadline`.

    Raised at traversal checkpoints (node pops, retry attempts, plan
    executions) so a query with an exhausted time budget fails promptly
    instead of hanging.  ``deadline_s`` records the total budget the
    operation was given (``None`` when unknown).
    """

    def __init__(self, message: str, deadline_s=None):
        super().__init__(message)
        self.deadline_s = deadline_s


class OperationCancelledError(MetricostError):
    """A cooperative cancellation was requested via
    :meth:`~repro.context.Context.cancel` and honoured at the next
    checkpoint."""


class OverloadError(MetricostError):
    """The service shed this request instead of queueing it.

    Raised by :class:`~repro.service.AdmissionController` when the bounded
    queue is full (or a queue wait times out) and by the token-bucket rate
    limiter — fast rejection is the point: the caller learns in
    microseconds that the system is saturated, rather than the system
    collapsing under unbounded queueing.  ``reason`` is one of
    ``"queue_full"``, ``"timeout"`` or ``"rate_limited"``.
    """

    def __init__(self, message: str, reason: str = "queue_full"):
        super().__init__(message)
        self.reason = reason


class CircuitOpenError(MetricostError):
    """A :class:`~repro.service.CircuitBreaker` is open: the protected
    dependency has been failing and calls are rejected without touching it
    until the recovery timeout elapses.  ``retry_after_s`` estimates when
    the breaker will next admit a probe.
    """

    def __init__(self, message: str, retry_after_s=None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class StaleEpochError(MetricostError):
    """A caller worked from a snapshot whose epoch is no longer current.

    Raised only by :class:`~repro.service.EpochCell`: when a writer
    publishes from a superseded snapshot or under an epoch that does not
    increase (a racing ingest ``apply``, a non-monotonic
    ``Router.install_membership``), and when ``require(epoch)`` finds
    the snapshot has moved on (a rebalance plan made at an older
    membership epoch, ``IngestService.require_epoch``).  ``epoch`` is
    the epoch current at the time of the raise.
    """

    def __init__(self, message: str, epoch=None):
        super().__init__(message)
        self.epoch = epoch
