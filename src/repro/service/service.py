"""A thread-safe concurrent query service over the metric indexes.

:class:`QueryService` composes the survivability pieces into one front
door: every submitted query passes (in order) the token-bucket rate
limiter, the admission controller, and the backend's circuit breaker,
then executes with a :class:`~repro.context.Deadline` threaded all the
way down to the tree traversal and the page store's retry loop.  Every
terminal condition — success, shed, open circuit, blown deadline,
degraded execution, hard failure — is a :class:`QueryOutcome` with a
``status``, never a hang and never an unhandled worker exception.

:meth:`QueryService.run` drives a batch through ``workers`` threads
(:func:`run_batch`, shared with the cluster router) and summarises into
a :class:`ServiceReport` (throughput, p50/p99 of the accepted, shed
counts); ``python -m repro serve-bench`` prints those as table rows
(:mod:`repro.experiments.serving`).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
)

from ..context import Context, Deadline
from ..exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    InvalidParameterError,
    MetricostError,
    OperationCancelledError,
    OverloadError,
)
from ..observability import state as _obs
from .admission import AdmissionController, TokenBucket
from .breaker import CircuitBreaker

__all__ = [
    "QueryRequest",
    "QueryOutcome",
    "ServiceReport",
    "MTreeBackend",
    "VPTreeBackend",
    "OptimizerBackend",
    "QueryService",
    "percentile",
    "run_batch",
]


@dataclass(frozen=True)
class QueryRequest:
    """One similarity query: a range probe or a k-NN probe.

    ``hedged`` marks a duplicate attempt issued by a scatter-gather
    router after its hedge delay; backends and fault injectors may treat
    hedges differently (a transient straggler slows the primary, not the
    hedge), and it keeps router accounting honest.
    """

    kind: str  # "range" | "knn"
    query: Any
    radius: Optional[float] = None  # for kind == "range"
    k: Optional[int] = None  # for kind == "knn"
    request_id: Optional[int] = None
    hedged: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("range", "knn"):
            raise InvalidParameterError(
                f"kind must be 'range' or 'knn', got {self.kind!r}"
            )
        if self.kind == "range" and (
            self.radius is None or not (self.radius >= 0)
        ):
            raise InvalidParameterError(
                f"range query needs radius >= 0, got {self.radius}"
            )
        if self.kind == "knn" and (self.k is None or self.k < 1):
            raise InvalidParameterError(
                f"k-NN query needs k >= 1, got {self.k}"
            )


@dataclass
class QueryOutcome:
    """How one request ended.

    ``status`` is one of ``"ok"``, ``"rejected"`` (shed by admission or
    rate limiting), ``"circuit_open"``, ``"deadline"``, ``"cancelled"``
    or ``"error"``.  ``latency_s`` covers the request's
    whole stay in the service, including any queue wait.

    ``degraded`` marks an answer produced around quarantined index
    damage (or via the linear-scan fallback rung); ``completeness`` is
    the backend's estimate of the fraction of the dataset that was
    reachable — an honest ``0.97`` instead of a silently short answer.
    """

    request: QueryRequest
    status: str
    latency_s: float
    items: Optional[List[Any]] = None
    error: Optional[str] = None
    nodes: int = 0
    dists: int = 0
    completeness: float = 1.0
    degraded: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    if not values:
        raise InvalidParameterError("percentile of an empty sequence")
    if not (0.0 <= q <= 100.0):
        raise InvalidParameterError(f"q must lie in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class _Outcome(Protocol):
    """What a batch summary reads off each outcome."""

    status: str
    latency_s: float
    degraded: bool


OutcomeT = TypeVar("OutcomeT", bound=_Outcome)


@dataclass
class ServiceReport(Generic[OutcomeT]):
    """A batch run summarised: counts, latency percentiles, throughput."""

    outcomes: List[OutcomeT]
    wall_s: float
    workers: int

    @property
    def total(self) -> int:
        return len(self.outcomes)

    def count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def accepted(self) -> List[OutcomeT]:
        return [o for o in self.outcomes if o.status == "ok"]

    @property
    def success_rate(self) -> float:
        return len(self.accepted) / self.total if self.total else 0.0

    @property
    def degraded(self) -> List[OutcomeT]:
        """Accepted answers that were computed around index damage."""
        return [o for o in self.outcomes if o.status == "ok" and o.degraded]

    @property
    def throughput_qps(self) -> float:
        return len(self.accepted) / self.wall_s if self.wall_s > 0 else 0.0

    def latency_percentile(self, q: float, status: str = "ok") -> float:
        values = [
            o.latency_s for o in self.outcomes if o.status == status
        ]
        return percentile(values, q)

    def render(self) -> str:
        lines = [
            f"{self.total} requests over {self.wall_s * 1e3:.1f} ms "
            f"with {self.workers} worker(s): "
            f"{len(self.accepted)} ok "
            f"({len(self.degraded)} degraded), "
            f"{self.count('rejected')} rejected, "
            f"{self.count('circuit_open')} circuit-open, "
            f"{self.count('deadline')} deadline, "
            f"{self.count('cancelled')} cancelled, "
            f"{self.count('error')} error",
        ]
        if self.accepted:
            lines.append(
                f"accepted latency: "
                f"p50 {self.latency_percentile(50) * 1e3:.3f} ms, "
                f"p99 {self.latency_percentile(99) * 1e3:.3f} ms; "
                f"throughput {self.throughput_qps:,.0f} q/s"
            )
        rejected = [
            o.latency_s for o in self.outcomes if o.status == "rejected"
        ]
        if rejected:
            lines.append(
                f"rejection latency: "
                f"p99 {percentile(rejected, 99) * 1e3:.3f} ms "
                f"(shed fast, not queued)"
            )
        return "\n".join(lines)


class MTreeBackend:
    """Executes requests against one M-tree (optionally page-backed).

    When ``pager`` is given, every logical node access replays one page
    read through it — so retry fronts, fault policies and circuit
    breakers stacked on the pager see real traffic and their failures
    surface as query failures.

    ``quarantine`` (a :class:`~repro.reliability.QuarantineSet`) makes
    the backend scrub-aware: traversals route around quarantined nodes
    and every affected outcome is flagged ``degraded`` with its
    ``completeness`` estimate.  When completeness would fall below
    ``min_completeness`` and a ``fallback``
    (:class:`~repro.workloads.LinearScanBaseline`) is configured, the
    request is re-answered by the linear scan over the pristine object
    snapshot — the existing degradation rung — which restores
    completeness 1.0 at linear cost (still flagged ``degraded``).
    """

    name = "mtree"

    def __init__(
        self,
        tree: Any,
        pager: Optional[Any] = None,
        quarantine: Optional[Any] = None,
        fallback: Optional[Any] = None,
        min_completeness: float = 0.0,
    ):
        if not (0.0 <= min_completeness <= 1.0):
            raise InvalidParameterError(
                f"min_completeness must lie in [0, 1], got {min_completeness}"
            )
        self.tree = tree
        self.pager = pager
        self.quarantine = quarantine
        self.fallback = fallback
        self.min_completeness = min_completeness

    def _fallback_execute(
        self, request: QueryRequest, start: float
    ) -> QueryOutcome:
        """Answer via the linear-scan rung (complete, but linear cost)."""
        if request.kind == "range":
            matches, pages, n_dists = self.fallback.range_query(
                request.query, request.radius
            )
            items = list(matches)
        else:
            neighbors, pages, n_dists = self.fallback.knn_query(
                request.query, request.k
            )
            items = list(neighbors)
        reg = _obs.registry
        if reg is not None:
            reg.inc("service.degraded_queries", rung="linear_scan")
        return QueryOutcome(
            request=request,
            status="ok",
            latency_s=time.perf_counter() - start,
            items=items,
            nodes=pages,
            dists=n_dists,
            completeness=1.0,
            degraded=True,
        )

    def execute(
        self, request: QueryRequest, deadline: Optional[Any] = None
    ) -> QueryOutcome:
        start = time.perf_counter()
        if request.kind == "range":
            result = self.tree.range_query(
                request.query,
                request.radius,
                deadline=deadline,
                quarantine=self.quarantine,
            )
            items = result.items
        else:
            result = self.tree.knn_query(
                request.query,
                request.k,
                deadline=deadline,
                quarantine=self.quarantine,
            )
            items = [(n.oid, n.obj, n.distance) for n in result.neighbors]
        completeness = getattr(result, "completeness", 1.0)
        degraded = completeness < 1.0
        if degraded and self.fallback is not None and (
            completeness < self.min_completeness
        ):
            return self._fallback_execute(request, start)
        if degraded:
            reg = _obs.registry
            if reg is not None:
                reg.inc("service.degraded_queries", rung="quarantine")
        if self.pager is not None:
            for page_id in range(
                min(result.stats.nodes_accessed, len(self.pager))
            ):
                if deadline is not None:
                    self.pager.read(page_id, deadline=deadline)
                else:
                    self.pager.read(page_id)
        return QueryOutcome(
            request=request,
            status="ok",
            latency_s=time.perf_counter() - start,
            items=items,
            nodes=result.stats.nodes_accessed,
            dists=result.stats.dists_computed,
            completeness=completeness,
            degraded=degraded,
        )


class VPTreeBackend:
    """Executes requests against one vp-tree (main-memory).

    ``quarantine`` makes the backend scrub-aware exactly like
    :class:`MTreeBackend` (no fallback rung: vp-trees are the in-memory
    tier).
    """

    name = "vptree"

    def __init__(self, tree: Any, quarantine: Optional[Any] = None):
        self.tree = tree
        self.quarantine = quarantine

    def execute(
        self, request: QueryRequest, deadline: Optional[Any] = None
    ) -> QueryOutcome:
        start = time.perf_counter()
        if request.kind == "range":
            result = self.tree.range_query(
                request.query,
                request.radius,
                deadline=deadline,
                quarantine=self.quarantine,
            )
            items = result.items
        else:
            result = self.tree.knn_query(
                request.query,
                request.k,
                deadline=deadline,
                quarantine=self.quarantine,
            )
            items = list(result.neighbors)
        completeness = getattr(result, "completeness", 1.0)
        degraded = completeness < 1.0
        if degraded and _obs.registry is not None:
            _obs.registry.inc("service.degraded_queries", rung="quarantine")
        return QueryOutcome(
            request=request,
            status="ok",
            latency_s=time.perf_counter() - start,
            items=items,
            nodes=0,
            dists=result.stats.dists_computed,
            completeness=completeness,
            degraded=degraded,
        )


class OptimizerBackend:
    """Executes requests through the cost-based optimizer's ladder."""

    name = "optimizer"

    def __init__(self, optimizer: Any):
        self.optimizer = optimizer

    def execute(
        self, request: QueryRequest, deadline: Optional[Any] = None
    ) -> QueryOutcome:
        start = time.perf_counter()
        if request.kind == "range":
            outcome = self.optimizer.run_range(
                request.query, request.radius, deadline=deadline
            )
        else:
            outcome = self.optimizer.run_knn(
                request.query, request.k, deadline=deadline
            )
        return QueryOutcome(
            request=request,
            status="ok",
            latency_s=time.perf_counter() - start,
            items=list(outcome.items),
            nodes=outcome.nodes,
            dists=outcome.dists,
        )


class QueryService:
    """The concurrent front door: shed, admit, breaker-guard, execute.

    ``submit`` never raises for per-request conditions — every path
    returns a :class:`QueryOutcome` whose ``status`` says what happened —
    so a pool of workers can hammer it without any exception plumbing.
    Unexpected (non-library) exceptions still propagate: those are bugs,
    not load.
    """

    def __init__(
        self,
        backend: Any,
        admission: Optional[AdmissionController] = None,
        rate_limiter: Optional[TokenBucket] = None,
        breaker: Optional[CircuitBreaker] = None,
        default_deadline_s: Optional[float] = None,
    ):
        self.backend = backend
        self.admission = (
            admission if admission is not None else AdmissionController()
        )
        self.rate_limiter = rate_limiter
        self.breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(getattr(backend, "name", "backend"))
        )
        self.default_deadline_s = default_deadline_s
        self._lock = threading.Lock()
        self.stats: Dict[str, int] = {}

    def _count(self, status: str) -> None:
        with self._lock:
            self.stats[status] = self.stats.get(status, 0) + 1
        reg = _obs.registry
        if reg is not None:
            reg.inc("service.requests", status=status)

    def submit(
        self,
        request: QueryRequest,
        deadline: Optional[Any] = None,
        context: Optional[Context] = None,
    ) -> QueryOutcome:
        """Run one request through the full pipeline; returns its outcome.

        ``deadline`` overrides the service default; ``context`` adds
        cooperative cancellation on top (and its own deadline, if set).
        """
        start = time.perf_counter()
        if deadline is None and self.default_deadline_s is not None:
            deadline = Deadline.after(self.default_deadline_s)
        budget: Optional[Any] = context if context is not None else deadline
        if context is not None and context.deadline is None and deadline is not None:
            # Bound this call only: the caller's context may be a batch
            # cancellation token shared by many requests.
            budget = context.with_deadline(deadline)

        def finish(
            status: str, error: Optional[str] = None
        ) -> QueryOutcome:
            latency = time.perf_counter() - start
            self._count(status)
            reg = _obs.registry
            if reg is not None:
                reg.observe("service.latency_seconds", latency, status=status)
            return QueryOutcome(
                request=request,
                status=status,
                latency_s=latency,
                error=error,
            )

        try:
            if self.rate_limiter is not None:
                self.rate_limiter.take_or_raise()
            with self.admission.admit():
                if budget is not None:
                    budget.check("admitted query")
                outcome = self.breaker.call(
                    self.backend.execute, request, deadline=budget
                )
        except OverloadError as exc:
            return finish("rejected", error=str(exc))
        except CircuitOpenError as exc:
            return finish("circuit_open", error=str(exc))
        except DeadlineExceededError as exc:
            return finish("deadline", error=str(exc))
        except OperationCancelledError as exc:
            return finish("cancelled", error=str(exc))
        except MetricostError as exc:
            return finish(
                "error", error=f"{type(exc).__name__}: {exc}"
            )
        outcome.latency_s = time.perf_counter() - start
        self._count("ok")
        reg = _obs.registry
        if reg is not None:
            reg.observe(
                "service.latency_seconds", outcome.latency_s, status="ok"
            )
        return outcome

    def run(
        self,
        requests: Sequence[QueryRequest],
        workers: int = 4,
        deadline_ms: Optional[float] = None,
    ) -> ServiceReport[QueryOutcome]:
        """Drive a batch through ``workers`` threads (see
        :func:`run_batch`); summarise."""
        outcomes, wall_s = run_batch(
            self.submit, requests, workers, deadline_ms
        )
        return ServiceReport(outcomes=outcomes, wall_s=wall_s, workers=workers)


def run_batch(
    call: Callable[..., OutcomeT],
    requests: Sequence[QueryRequest],
    workers: int,
    deadline_ms: Optional[float],
) -> Tuple[List[OutcomeT], float]:
    """Run ``call(request, deadline=...)`` over a batch on ``workers``
    threads; return the outcomes in request order and the wall time.

    Each request gets its *own* deadline of ``deadline_ms`` (when set),
    measured from the moment a worker picks it up.  ``call`` must turn
    every per-request condition into an outcome; anything it raises is
    re-raised here after the pool drains.
    """
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    pending: "queue.Queue[Optional[int]]" = queue.Queue()
    for index in range(len(requests)):
        pending.put(index)
    for _ in range(workers):
        pending.put(None)  # one poison pill per worker
    outcomes: List[Optional[OutcomeT]] = [None] * len(requests)
    worker_errors: List[BaseException] = []

    def work() -> None:
        while True:
            index = pending.get()
            if index is None:
                return
            deadline = (
                Deadline.after_ms(deadline_ms)
                if deadline_ms is not None
                else None
            )
            try:
                outcomes[index] = call(requests[index], deadline=deadline)
            # metalint: ignore[cancellation-hygiene] — call() already
            # converts cancellation into an outcome, so anything caught
            # here is an unexpected worker crash; it is re-raised on the
            # caller thread after join().
            except BaseException as exc:  # noqa: BLE001 — surfaced below
                worker_errors.append(exc)
                return

    started = time.perf_counter()
    threads = [
        threading.Thread(target=work, name=f"query-worker-{i}")
        for i in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - started
    if worker_errors:
        raise worker_errors[0]
    done = [o for o in outcomes if o is not None]
    if len(done) != len(requests):
        raise MetricostError(
            f"worker pool lost {len(requests) - len(done)} request(s)"
        )
    return done, wall_s
