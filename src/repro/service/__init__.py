"""Survivable concurrent serving for metric similarity queries.

The cost model (PAPER.md) predicts per-query resource use; this package
is about what happens when many such queries share one process and the
predictions go wrong.  Five mechanisms, composable and individually
testable (see ``docs/robustness.md``):

* **deadlines & cancellation** — :class:`~repro.context.Deadline` /
  :class:`~repro.context.Context` (re-exported here) bound a query's
  *time*, enforced at traversal checkpoints down through the retry loop;
* **admission control & shedding** — :class:`AdmissionController` and
  :class:`TokenBucket` bound concurrency and arrival rate, rejecting the
  excess in microseconds with :class:`~repro.exceptions.OverloadError`;
* **circuit breakers** — :class:`CircuitBreaker` /
  :class:`BreakerPageStore` stop hammering a persistently-failing
  dependency (closed → open → half-open);
* **crash-consistent recovery** — :class:`GenerationStore` journals
  multi-file index bundles (``metricost-manifest-v1``) so a kill at any
  byte offset leaves the previous or the new generation fully readable,
  never a mix;
* **one epoch fence** — :class:`EpochCell`: readers pin a snapshot,
  writers publish by compare-and-swap under an increasing epoch.

:class:`QueryService` composes them into one front door;
``python -m repro serve-bench`` measures its throughput vs workers and
its tails under 2x overload, with and without shedding
(:mod:`repro.experiments.serving`).
"""

from __future__ import annotations

from ..context import Context, Deadline
from .admission import AdmissionController, TokenBucket
from .breaker import DEFAULT_TRIP_ON, BreakerPageStore, CircuitBreaker
from .epoch import EpochCell
from .recovery import (
    MANIFEST_FORMAT,
    GenerationStore,
    RecoveryPerformed,
    SimulatedCrashError,
)
from .service import (
    MTreeBackend,
    OptimizerBackend,
    QueryOutcome,
    QueryRequest,
    QueryService,
    ServiceReport,
    VPTreeBackend,
    percentile,
)

__all__ = [
    "Deadline",
    "Context",
    "AdmissionController",
    "TokenBucket",
    "CircuitBreaker",
    "BreakerPageStore",
    "DEFAULT_TRIP_ON",
    "EpochCell",
    "GenerationStore",
    "RecoveryPerformed",
    "SimulatedCrashError",
    "MANIFEST_FORMAT",
    "QueryRequest",
    "QueryOutcome",
    "ServiceReport",
    "MTreeBackend",
    "VPTreeBackend",
    "OptimizerBackend",
    "QueryService",
    "percentile",
]
