"""The four benchmark workloads, run inside one child interpreter.

Every workload is a closed loop with one client thread: the next
operation is issued only after the previous one returned, as callers of
this library (optimizer, experiment drivers, similarity joins) do.  Op
counts are fixed by ``--seconds`` through a nominal rate per workload,
so a given seed always issues the same operations, and a faster program
finishes sooner instead of doing more work.  Each workload's dataset and
build seeds are fixed, like its size; the run's seed draws the queries
it asks.  The library only sees the generated inputs.  Timings are the
benchmark's own ``time.perf_counter()`` around calls into public
functions; the library's self-reported ``latency_s`` is never read.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.observability.state as obs_state
from repro.cluster import build_cluster
from repro.datasets import clustered_dataset, keyword_dataset
from repro.datasets.keywords import PAPER_TEXT_DATASETS
from repro.exceptions import (
    DeadlineExceededError,
    MetricostError,
    OperationCancelledError,
)
from repro.experiments.common import (
    PAPER_MIN_UTILIZATION,
    PAPER_NODE_SIZE_BYTES,
    build_text_setup,
    build_vector_setup,
    paper_range_radius,
)
from repro.ingest import IngestService
from repro.mtree import vector_layout
from repro.service import MTreeBackend, QueryRequest, QueryService
from repro.workloads import LinearScanBaseline

from tracing import SpanRecorder, layer_metrics

WORKLOADS = ("vectors-mtree", "text-edit", "cluster-scatter", "ingest-readwrite")

#: Ops per second of run time, set-up included, of each workload at the
#: commit that defined the benchmark (numpy kernels, 2 cores), so that a
#: run lasts a little under ``--seconds``, leaving room for the host's
#: slow stretches.  Op count = rate x ``--seconds``; an ingest op is one
#: inserted object.
RATES = {
    "vectors-mtree": 270,
    "text-edit": 28,
    "cluster-scatter": 36,
    "ingest-readwrite": 800,
}

DIM = 8
VECTORS = 20_000
TEXT_KEY = "D"
TEXT_FRACTION = 0.2  # of the Decamerone vocabulary (17,936 words)
TEXT_RADIUS = 3  # the Figure 3 radius
KNN_K = 10
SHARDS = 4
INGEST_BASE = 5_000
INGEST_TAIL = 2_048
INGEST_BATCH = 20
CHECKPOINTS = 8
CHECK_EVERY = 25  # re-check every 25th answer against a linear scan
# Throughput and median latency are those of the best window: the loop
# is cut into up to WINDOWS windows of at least MIN_WINDOW ops, about
# half a second each (for ingest, the windows are checkpoint cycles).
# The speed of a shared host swings by up to 1.8x between half-second
# stretches, and a disturbance only ever slows a window down, so the best
# window measures the program more steadily than a statistic over the
# whole loop or over longer blocks.
WINDOWS = 40
MIN_WINDOW = 20
# The set-ups are spread over the run, one before each of SETUP_REPEATS
# equal segments of the loop, so that a slow stretch at the start of a
# run does not slow them all.  For ingest, each set-up starts a pass.
SETUP_REPEATS = 5
WARMUP_FRACTION = 0.02
MIN_OPS = 16

# The datasets (points, words, insert order) and the build seeds are part
# of a workload's definition, like its size; the run's seed only draws
# the queries.  With data and builds drawn per seed, distances per query
# moved by up to 9% between seeds (28% with per-seed cluster centres), so
# no exact bound on that count could hold.
DATA_SEED = 0
QUERIES = 1  # stream of the run's seed that draws queries


class BenchmarkError(MetricostError):
    """The benchmark itself was misused or found a broken invariant."""


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(n * scale)))


def _pct(values: List[float], q: float) -> float:
    return float(np.percentile(values, q))


def _chunks(items: List[Any], n: int) -> List[List[Any]]:
    """``items`` cut into ``n`` consecutive parts of near-equal length."""
    return [items[len(items) * i // n:len(items) * (i + 1) // n]
            for i in range(n)]


def _rel_err(predicted: float, observed: float) -> float:
    return abs(predicted - observed) / observed if observed else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def require_observability_off() -> None:
    """The untraced run measures the library with its own telemetry off."""
    if obs_state.registry is not None or obs_state.tracer is not None:
        raise BenchmarkError(
            "repro.observability is installed; the untraced run must "
            "measure the library with it off"
        )


def _guard(fn: Callable[..., Any], *args: Any) -> Tuple[Any, Optional[str]]:
    """Run one operation; a library exception becomes a failure."""
    try:
        return fn(*args), None
    except (DeadlineExceededError, OperationCancelledError) as exc:
        return None, f"{type(exc).__name__}: {exc}"
    except MetricostError as exc:
        return None, f"{type(exc).__name__}: {exc}"


# ------------------------------------------------------------ answer checks


def answers_match(
    request: QueryRequest, items: List[Tuple[int, Any, float]], truth: Any
) -> bool:
    """Range: the same oid set.  k-NN: the same sorted distances."""
    if request.kind == "range":
        matches, _pages, _dists = truth.range_query(
            request.query, request.radius
        )
        return {oid for oid, _o, _d in items} == {oid for oid, _o, _d in matches}
    neighbors, _pages, _dists = truth.knn_query(request.query, request.k)
    got = sorted(d for _oid, _o, d in items)
    want = [d for _oid, _o, d in neighbors]
    return len(got) == len(want) and bool(
        np.allclose(got, want, rtol=1e-9, atol=0.0)
    )


def linear_scan(objects: Any, metric: Any) -> LinearScanBaseline:
    return LinearScanBaseline(objects, metric, object_bytes=1, node_size_bytes=1)


# ------------------------------------------------------------ query workloads


@dataclass
class Pass:
    """One measured loop: its latencies, counts and sampled answers.

    ``windows`` holds ``(lo, hi, seconds)``: the ops ``latencies_s[lo:hi]``
    took ``seconds`` of wall time together.
    """

    ops: int = 0
    wall_s: float = 0.0
    windows: List[Tuple[int, int, float]] = field(default_factory=list)
    latencies_s: List[float] = field(default_factory=list)
    dists: List[int] = field(default_factory=list)
    nodes: List[int] = field(default_factory=list)
    results: List[int] = field(default_factory=list)
    range_dists: List[int] = field(default_factory=list)
    range_nodes: List[int] = field(default_factory=list)
    non_ok: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    samples: List[Tuple[QueryRequest, List[Any], Any]] = field(
        default_factory=list
    )
    shards_total: int = 0
    shards_pruned: int = 0
    hedged: int = 0
    hedge_wins: int = 0

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(reason)

    def ops_per_s(self) -> float:
        """Ops completed per second in the fastest window."""
        return max((hi - lo) / seconds for lo, hi, seconds in self.windows)

    def p50_ms(self) -> float:
        """The lowest of the windows' median latencies."""
        return 1e3 * min(
            _pct(self.latencies_s[lo:hi], 50) for lo, hi, _s in self.windows
        )


@dataclass
class Built:
    """What a query workload's setup returns.

    ``submit`` looks the public method up on every call, so a method the
    span recorder patches later (or has since restored) is honoured.
    """

    submit: Callable[[QueryRequest], Any]
    level_model: Any = None
    node_model: Any = None


@dataclass
class QueryInputs:
    objects: Any
    metric: Any
    requests: List[QueryRequest]
    traced_requests: List[QueryRequest]
    warmup: List[QueryRequest]
    setup: Callable[[], Built]
    range_radius: float


def _requests(
    queries: List[Any], radius: float, knn: bool, first_id: int
) -> List[QueryRequest]:
    """Alternate range and k-NN probes (range only when ``knn`` is off)."""
    return [
        QueryRequest("knn", q, k=KNN_K, request_id=first_id + i)
        if knn and i % 2 else
        QueryRequest("range", q, radius=radius, request_id=first_id + i)
        for i, q in enumerate(queries)
    ]


def _split(
    queries: List[Any], n_ops: int, n_warm: int, radius: float, knn: bool
) -> Tuple[List[QueryRequest], List[QueryRequest], List[QueryRequest]]:
    """Measured, traced and warm-up requests over distinct queries."""
    measured = _requests(queries[:n_ops], radius, knn, 0)
    traced = _requests(queries[n_ops:2 * n_ops], radius, knn, n_ops)
    warmup = _requests(queries[2 * n_ops:2 * n_ops + n_warm], radius, knn,
                       2 * n_ops)
    return measured, traced, warmup


def _distinct_words(space: Any, rng: np.random.Generator, count: int) -> List[str]:
    words: List[str] = []
    seen: set = set()
    while len(words) < count:
        for word in space.sample(rng, count - len(words)):
            if word not in seen:
                seen.add(word)
                words.append(word)
    return words


def vector_inputs(
    name: str, seed: int, scale: float, n_ops: int
) -> QueryInputs:
    data = clustered_dataset(_scaled(VECTORS, scale, 64), DIM, seed=DATA_SEED)
    n_warm = max(SETUP_REPEATS, int(n_ops * WARMUP_FRACTION))
    radius = paper_range_radius(DIM)
    queries = list(data.space.sample(_rng(seed, QUERIES), 2 * n_ops + n_warm))
    measured, traced, warmup = _split(queries, n_ops, n_warm, radius, True)

    if name == "vectors-mtree":
        def setup() -> Built:
            built = build_vector_setup(
                data, n_queries=1, build_seed=DATA_SEED,
                hist_seed=DATA_SEED + 1, query_seed=DATA_SEED + 2,
            )
            service = QueryService(MTreeBackend(built.tree))
            return Built(lambda r: service.submit(r), built.level_model,
                         built.node_model)
    else:
        def setup() -> Built:
            router = build_cluster(
                data.points, data.metric, n_shards=SHARDS,
                d_plus=data.d_plus, seed=DATA_SEED,
            )
            return Built(lambda r: router.execute(r))

    return QueryInputs(
        objects=data.points, metric=data.metric, requests=measured,
        traced_requests=traced, warmup=warmup, setup=setup,
        range_radius=radius,
    )


def text_inputs(seed: int, scale: float, n_ops: int) -> QueryInputs:
    _title, size, _seed, mean_len, std_len = PAPER_TEXT_DATASETS[TEXT_KEY]
    data = keyword_dataset(
        _scaled(size, TEXT_FRACTION * scale, 64), seed=DATA_SEED,
        name=TEXT_KEY, mean_length=mean_len, std_length=std_len,
    )
    n_warm = max(SETUP_REPEATS, int(n_ops * WARMUP_FRACTION))
    queries = _distinct_words(data.space, _rng(seed, QUERIES), 2 * n_ops + n_warm)
    measured, traced, warmup = _split(queries, n_ops, n_warm, TEXT_RADIUS, False)

    def setup() -> Built:
        built = build_text_setup(
            data, n_queries=1, build_seed=DATA_SEED,
            hist_seed=DATA_SEED + 1, query_seed=DATA_SEED + 2,
        )
        service = QueryService(MTreeBackend(built.tree))
        return Built(lambda r: service.submit(r), built.level_model,
                     built.node_model)

    return QueryInputs(
        objects=data.objects(), metric=data.metric, requests=measured,
        traced_requests=traced, warmup=warmup, setup=setup,
        range_radius=TEXT_RADIUS,
    )


def run_queries(
    submit: Callable[[QueryRequest], Any], requests: List[QueryRequest],
    run: Optional[Pass] = None, windows: int = WINDOWS,
) -> Pass:
    """The closed loop: one request at a time, each timed on its own, in
    up to ``windows`` windows.  With ``run``, the loop extends it."""
    run = run if run is not None else Pass()
    first = len(run.latencies_s)
    count = max(1, min(windows, len(requests) // MIN_WINDOW))
    edges = [len(requests) * i // count for i in range(count + 1)]
    clock = time.perf_counter
    started = clock()
    for lo, hi in zip(edges, edges[1:]):
        window_started = clock()
        for request in requests[lo:hi]:
            t0 = clock()
            outcome, error = _guard(submit, request)
            run.latencies_s.append(clock() - t0)
            if error is not None:
                run.fail(f"request {request.request_id}: {error}")
                continue
            if not outcome.ok:
                run.non_ok += 1
                run.fail(f"request {request.request_id}: status {outcome.status}")
                continue
            items = outcome.items or []
            run.dists.append(outcome.dists)
            run.nodes.append(getattr(outcome, "nodes", 0))
            run.results.append(len(items))
            if request.kind == "range":
                run.range_dists.append(outcome.dists)
                run.range_nodes.append(getattr(outcome, "nodes", 0))
            reports = getattr(outcome, "shard_reports", None)
            if reports is not None:
                run.shards_total += outcome.shards_total
                run.shards_pruned += outcome.shards_pruned
                run.hedged += outcome.shards_hedged
                run.hedge_wins += sum(1 for r in reports if r.hedge_won)
            if (len(run.latencies_s) - 1) % CHECK_EVERY == 0:
                run.samples.append((request, list(items), None))
        run.windows.append((first + lo, first + hi, clock() - window_started))
    run.ops += len(requests)
    run.wall_s += clock() - started
    return run


def check_queries(run: Pass, truth: Any) -> None:
    """Re-check the sampled answers; a mismatch is a failure."""
    for request, items, _seen in run.samples:
        if not answers_match(request, items, truth):
            run.fail(f"request {request.request_id}: wrong {request.kind} answer")


def query_metrics(run: Pass, inputs: QueryInputs, built: Built) -> Dict[str, float]:
    metrics = {
        "ops_per_s": run.ops_per_s(),
        "query_p50_ms": run.p50_ms(),
        "query_p95_ms": _pct(run.latencies_s, 95) * 1e3,
        "dists_per_query": float(np.mean(run.dists)) if run.dists else 0.0,
        "service.non_ok_frac": run.non_ok / run.ops,
    }
    if built.level_model is not None:  # an M-tree with its cost models
        metrics["mtree.nodes_per_query"] = float(np.mean(run.nodes))
        metrics["mtree.results_per_dist"] = sum(run.results) / max(1, sum(run.dists))
        observed_d = float(np.mean(run.range_dists))
        observed_n = float(np.mean(run.range_nodes))
        r = inputs.range_radius
        metrics["core.lmcm_dists_err"] = _rel_err(
            float(built.level_model.range_dists(r)), observed_d)
        metrics["core.nmcm_dists_err"] = _rel_err(
            float(built.node_model.range_dists(r)), observed_d)
        metrics["core.lmcm_nodes_err"] = _rel_err(
            float(built.level_model.range_nodes(r)), observed_n)
        metrics["core.nmcm_nodes_err"] = _rel_err(
            float(built.node_model.range_nodes(r)), observed_n)
    if run.shards_total:
        metrics["cluster.shards_pruned_frac"] = run.shards_pruned / run.shards_total
        metrics["cluster.hedges_per_op"] = run.hedged / run.ops
        metrics["cluster.hedge_win_frac"] = run.hedge_wins / max(1, run.hedged)
    return metrics


def run_query_workload(inputs: QueryInputs, trace: bool) -> Dict[str, Any]:
    truth = linear_scan(inputs.objects, inputs.metric)
    if not trace:
        require_observability_off()
        run, setups_s, built = Pass(), [], None
        for requests, warmup in zip(_chunks(inputs.requests, SETUP_REPEATS),
                                    _chunks(inputs.warmup, SETUP_REPEATS)):
            built = None  # let the previous build go before timing the next
            gc.collect()  # now, rather than inside the next timed set-up
            t0 = time.perf_counter()
            built = inputs.setup()
            setups_s.append(time.perf_counter() - t0)
            run_queries(built.submit, warmup)
            run_queries(built.submit, requests, run, WINDOWS // SETUP_REPEATS)
            # Kept until the end, the sampled answers (~50k objects per
            # segment) fragment the heap and add ~30 MB to peak_rss_mb.
            check_queries(run, truth)
            run.samples.clear()
        require_observability_off()
        metrics = query_metrics(run, inputs, built)
        metrics["setup_s"] = statistics.median(setups_s)
        metrics["peak_rss_mb"] = peak_rss_mb()
        return _result(metrics, run.ops, run.failed, run.errors)

    recorder = SpanRecorder([type(inputs.metric)])
    with recorder:
        built = inputs.setup()
    setup_spans, _ = recorder.drain()
    run_queries(built.submit, inputs.warmup)
    plain = run_queries(built.submit, inputs.requests)
    with recorder:
        traced = run_queries(built.submit, inputs.traced_requests)
    spans, counters = recorder.drain()
    check_queries(plain, truth)
    check_queries(traced, truth)
    metrics = query_metrics(plain, inputs, built)
    metrics.update(layer_metrics(
        {"setup": setup_spans, "run": spans}, counters,
        ops=traced.ops, wall_s=traced.wall_s, objects=0,
    ))
    metrics["trace.overhead_frac"] = 1.0 - traced.ops_per_s() / plain.ops_per_s()
    return _result(
        metrics, plain.ops + traced.ops, plain.failed + traced.failed,
        plain.errors + traced.errors,
        phases={"setup": setup_spans, "run": spans},
    )


def _result(
    metrics: Dict[str, float], attempted: int, failed: int, errors: List[str],
    phases: Optional[Dict[str, List[list]]] = None,
) -> Dict[str, Any]:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "metrics": metrics,
        "phases": phases,
    }


# ------------------------------------------------------------ ingest workload


@dataclass
class IngestInputs:
    points: np.ndarray  # base, then stream, then tail, in append order
    metric: Any
    base: int
    stream: int  # objects streamed by one pass
    tail: int
    reads: List[List[QueryRequest]]  # each pass's own: two per batch
    warmup: List[List[QueryRequest]]


def ingest_inputs(seed: int, scale: float, n_ops: int) -> IngestInputs:
    """``n_ops`` objects streamed over ``SETUP_REPEATS`` passes, each
    into a fresh store holding the same base, each with its own reads."""
    base = _scaled(INGEST_BASE, scale, 2 * KNN_K)
    tail = _scaled(INGEST_TAIL, scale, INGEST_BATCH)
    batches = max(CHECKPOINTS, n_ops // (SETUP_REPEATS * INGEST_BATCH))
    batches -= batches % CHECKPOINTS
    stream = batches * INGEST_BATCH
    data = clustered_dataset(base + stream + tail, DIM, seed=DATA_SEED)
    radius = paper_range_radius(DIM)
    n_reads = 2 * batches
    n_warm = max(2, int(n_reads * WARMUP_FRACTION))
    per_pass = n_reads + n_warm
    queries = list(data.space.sample(
        _rng(seed, QUERIES), SETUP_REPEATS * per_pass))
    requests = _requests(queries, radius, True, 0)
    passes = [requests[i:i + per_pass] for i in range(0, len(requests), per_pass)]
    return IngestInputs(
        points=data.points, metric=data.metric, base=base, stream=stream,
        tail=tail, reads=[p[:n_reads] for p in passes],
        warmup=[p[n_reads:] for p in passes],
    )


@dataclass
class IngestPass(Pass):
    setup_s: float = 0.0
    acks_s: List[float] = field(default_factory=list)
    checkpoints_s: List[float] = field(default_factory=list)
    recover_s: float = 0.0
    snapshot_objects: int = 0


def _layout() -> Any:
    return vector_layout(
        DIM, node_size_bytes=PAPER_NODE_SIZE_BYTES,
        min_utilization=PAPER_MIN_UTILIZATION,
    )


def _ingest_setup(inputs: IngestInputs, directory: str) -> IngestService:
    """Open an empty store, load and checkpoint the base."""
    service = IngestService(directory, inputs.metric, _layout(), fsync="always")
    service.recover()
    service.append(inputs.points[:inputs.base])
    service.apply()
    service.checkpoint()
    return service


def _read(view: Any, request: QueryRequest) -> Tuple[List[Any], Any]:
    if request.kind == "range":
        result = view.tree.range_query(request.query, request.radius)
        return result.items, result.stats
    result = view.tree.knn_query(request.query, request.k)
    return [(n.oid, n.obj, n.distance) for n in result.neighbors], result.stats


def _read_into(run: Pass, view: Any, request: QueryRequest, index: int) -> None:
    t0 = time.perf_counter()
    answer, error = _guard(_read, view, request)
    run.latencies_s.append(time.perf_counter() - t0)
    if error is not None:
        run.fail(f"read {request.request_id}: {error}")
        return
    items, stats = answer
    run.dists.append(stats.dists_computed)
    run.nodes.append(stats.nodes_accessed)
    run.results.append(len(items))
    if index % CHECK_EVERY == 0:
        run.samples.append((request, list(items), view.seq))


def stream_ingest(
    service: IngestService, inputs: IngestInputs, reads: List[QueryRequest]
) -> IngestPass:
    """Append+apply in batches; two reads on the pinned view after each
    batch; a checkpoint after every eighth of the stream.  Each
    checkpoint cycle, checkpoint included, is one window."""
    run = IngestPass(ops=inputs.stream)
    batches = inputs.stream // INGEST_BATCH
    every = batches // CHECKPOINTS
    clock = time.perf_counter
    started = window_started = clock()
    for b in range(batches):
        lo = inputs.base + b * INGEST_BATCH
        t0 = clock()
        _ack, error = _guard(service.append, inputs.points[lo:lo + INGEST_BATCH])
        run.acks_s.append(clock() - t0)
        if error is not None:
            run.fail(f"append {b}: {error}")
        outcome, error = _guard(service.apply)
        if error is not None or outcome.failures:
            run.fail(f"apply {b}: {error or outcome.failures[0].error}")
        view = service.view()
        for i in (2 * b, 2 * b + 1):
            _read_into(run, view, reads[i], i)
        if (b + 1) % every == 0:
            t0 = clock()
            _out, error = _guard(service.checkpoint)
            run.checkpoints_s.append(clock() - t0)
            if error is not None:
                run.fail(f"checkpoint {b}: {error}")
            run.snapshot_objects += len(view)
            now = clock()
            first_read = run.windows[-1][1] if run.windows else 0
            run.windows.append(
                (first_read, len(run.latencies_s), now - window_started))
            window_started = now
    run.wall_s = clock() - started
    return run


def recover_ingest(
    inputs: IngestInputs, directory: str, run: IngestPass
) -> None:
    """Reopen the closed store cold and check that it replayed the
    unapplied tail and holds every acknowledged object exactly once."""
    total = inputs.base + inputs.stream + inputs.tail
    service = IngestService(directory, inputs.metric, _layout(), fsync="always")
    try:
        t0 = time.perf_counter()
        recovery, error = _guard(service.recover)
        run.recover_s = time.perf_counter() - t0
        if error is not None:
            run.fail(f"recover: {error}")
            return
        if recovery.replayed != inputs.tail:
            run.fail(f"recover replayed {recovery.replayed}, "
                     f"expected {inputs.tail}")
        pairs = sorted(service.view().tree.iter_objects(), key=lambda p: p[0])
        if [oid for oid, _ in pairs] != list(range(total)) or not (
            np.array_equal(np.asarray([obj for _, obj in pairs]),
                           inputs.points[:total])
        ):
            run.fail("recovered tree does not hold every acked object once")
    finally:
        service.close()


def check_reads(run: Pass, inputs: IngestInputs) -> None:
    """Each sampled read against a scan of the objects its view held."""
    for request, items, seq in run.samples:
        truth = linear_scan(inputs.points[:seq], inputs.metric)
        if not answers_match(request, items, truth):
            run.fail(f"read {request.request_id}: wrong {request.kind} answer")


def _ingest_pass(
    inputs: IngestInputs, workdir: str, index: int,
    recorder: Optional[SpanRecorder],
) -> Tuple[IngestPass, Dict[str, List[list]], Dict[str, int]]:
    """Timed set-up, stream, tail and a cold recover in a fresh directory."""
    directory = tempfile.mkdtemp(prefix="ingest-", dir=workdir)
    phases: Dict[str, List[list]] = {}
    counters: Dict[str, int] = {}
    tracing = recorder if recorder is not None else nullcontext()
    gc.collect()  # the previous pass's garbage, outside this pass's timings
    try:
        with tracing:
            t0 = time.perf_counter()
            service = _ingest_setup(inputs, directory)
            setup_s = time.perf_counter() - t0
        if recorder is not None:
            phases["setup"], _ = recorder.drain()
        for i, request in enumerate(inputs.warmup[index]):
            _read_into(Pass(), service.view(), request, i)
        with tracing:
            run = stream_ingest(service, inputs, inputs.reads[index])
        if recorder is not None:
            phases["run"], counters = recorder.drain()
        run.setup_s = setup_s
        service.append(inputs.points[inputs.base + inputs.stream:])
        service.close()
        with tracing:
            recover_ingest(inputs, directory, run)
        if recorder is not None:
            phases["recover"], _ = recorder.drain()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    check_reads(run, inputs)
    return run, phases, counters


def fastest_cycles(passes: List[IngestPass]) -> Tuple[float, List[float]]:
    """The stream composed of each checkpoint cycle's fastest run over
    ``passes``: its objects per second and the latencies of its reads.
    Every pass streams the same objects, so cycle ``c`` of one pass does
    the same writes as cycle ``c`` of another."""
    seconds, reads = 0.0, []
    for runs in zip(*(p.windows for p in passes)):
        index = min(range(len(runs)), key=lambda i: runs[i][2])
        lo, hi, cycle_s = runs[index]
        seconds += cycle_s
        reads += passes[index].latencies_s[lo:hi]
    return passes[0].ops / seconds, reads


def ingest_metrics(passes: List[IngestPass]) -> Dict[str, float]:
    """Rate and median read latency of the fastest cycles, set-up and
    recovery as medians over the passes, the rest over every pass."""
    def every(attr: str) -> List[Any]:
        return [value for p in passes for value in getattr(p, attr)]

    dists, acks, checkpoints = every("dists"), every("acks_s"), every("checkpoints_s")
    ops_per_s, reads = fastest_cycles(passes)
    return {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "ops_per_s": ops_per_s,
        "query_p50_ms": _pct(reads, 50) * 1e3,
        "query_p95_ms": _pct(every("latencies_s"), 95) * 1e3,
        "dists_per_query": float(np.mean(dists)),
        "mtree.nodes_per_query": float(np.mean(every("nodes"))),
        "mtree.results_per_dist": sum(every("results")) / max(1, sum(dists)),
        "ingest.ack_p50_ms": _pct(acks, 50) * 1e3,
        "ingest.ack_p99_ms": _pct(acks, 99) * 1e3,
        "persistence.checkpoint_p50_ms": _pct(checkpoints, 50) * 1e3,
        "ingest.recover_s": statistics.median(p.recover_s for p in passes),
    }


def _attempted(run: IngestPass) -> int:
    """Appends, applies, reads, checkpoints and the cold recover."""
    batches = run.ops // INGEST_BATCH
    return 2 * batches + len(run.latencies_s) + len(run.checkpoints_s) + 1


def run_ingest_workload(
    inputs: IngestInputs, trace: bool, workdir: str
) -> Dict[str, Any]:
    """``SETUP_REPEATS`` passes; with ``trace``, every second one traced."""
    if not trace:
        require_observability_off()
    recorder = SpanRecorder([type(inputs.metric)]) if trace else None
    plain: List[IngestPass] = []
    traced: List[IngestPass] = []
    phases: Dict[str, List[list]] = {"setup": [], "run": [], "recover": []}
    counters: Dict[str, int] = {}
    for index in range(SETUP_REPEATS):
        traced_pass = trace and index % 2 == 1
        run, pass_phases, pass_counters = _ingest_pass(
            inputs, workdir, index, recorder if traced_pass else None)
        (traced if traced_pass else plain).append(run)
        for name, spans in pass_phases.items():
            phases[name] += spans
        for key, value in pass_counters.items():
            counters[key] = counters.get(key, 0) + value
    passes = plain + traced
    attempted = sum(_attempted(p) for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    metrics = ingest_metrics(plain)
    if not trace:
        require_observability_off()
        metrics["peak_rss_mb"] = peak_rss_mb()
        return _result(metrics, attempted, failed, errors)
    counters["snapshot_objects"] = sum(p.snapshot_objects for p in traced)
    objects = sum(p.ops for p in traced)
    metrics.update(layer_metrics(
        phases, counters, ops=objects, wall_s=sum(p.wall_s for p in traced),
        objects=objects,
    ))
    metrics["trace.overhead_frac"] = (
        1.0 - fastest_cycles(traced)[0] / metrics["ops_per_s"])
    return _result(metrics, attempted, failed, errors, phases=phases)


# ------------------------------------------------------------------ entry


def run_workload(
    name: str, seed: int, seconds: float, scale: float, trace: bool,
    workdir: str,
) -> Dict[str, Any]:
    """Generate the inputs of ``name`` from ``seed`` and run it."""
    if name not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    n_ops = max(MIN_OPS, int(round(RATES[name] * seconds)))
    if name == "ingest-readwrite":
        # A traced run alternates untraced and traced passes.
        return run_ingest_workload(ingest_inputs(seed, scale, n_ops), trace, workdir)
    if trace:
        # The traced run splits the same op count between an untraced
        # pass and a traced pass, so it lasts about as long.
        n_ops = max(MIN_OPS // 2, n_ops // 2)
    if name == "text-edit":
        inputs = text_inputs(seed, scale, n_ops)
    else:
        inputs = vector_inputs(name, seed, scale, n_ops)
    return run_query_workload(inputs, trace)


def environment() -> Dict[str, Any]:
    """Backend and machine facts for the result header."""
    from repro.metrics import kernels

    return {
        "backend": kernels.active_backend(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
