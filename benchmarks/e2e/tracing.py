"""Per-layer spans recorded from outside the library.

The traced run must not switch on ``repro.observability``: installing it
turns on the program's own counters and locks, which would change what
is being measured.  Instead :class:`SpanRecorder` replaces a fixed set
of public functions with thin wrappers for the duration of a ``with``
block and restores the originals afterwards.  A function is patched
where its caller looks it up (``bulk_load`` in
``repro.experiments.common``, ``mtree_to_dict`` in
``repro.ingest.service``, methods on their classes, ``os.fsync`` on the
``os`` module).

Each wrapper appends one span ``[sid, name, start, end, parent, rid, n,
thread]`` to a buffer owned by the calling thread, so recording takes no
lock.  ``parent`` is the enclosing span on the same thread; ``rid`` is
the request id, taken from the ``QueryRequest`` where the call carries
one and inherited from the parent otherwise.  Router shard calls run on
threads the router starts, so they are joined to their query through
``rid``.  Metric wrappers record only the outermost call on a thread,
because ``one_to_many_bounded`` may call ``one_to_many``.

:func:`layer_metrics` turns the spans of one measured phase into the
per-layer numbers listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

import repro.cluster.router as router_mod
import repro.cluster.shard as shard_mod
import repro.experiments.common as common_mod
import repro.ingest.service as ingest_mod
import repro.ingest.wal as wal_mod
import repro.mtree.tree as mtree_mod
import repro.service.admission as admission_mod
import repro.service.recovery as recovery_mod
import repro.service.service as service_mod
import repro.vptree.tree as vptree_mod
from repro.exceptions import InvalidParameterError

# Span record fields.
SID, NAME, START, END, PARENT, RID, N, TID = range(8)

_MISSING = object()

KERNEL_METHODS = {
    "distance": lambda args: 1,
    "one_to_many": lambda args: len(args[2]),
    "one_to_many_bounded": lambda args: len(args[2]),
    "pairwise": lambda args: len(args[1]) * len(args[2]),
    "rowwise": lambda args: len(args[1]),
}


def _request_id(args: Tuple[Any, ...]) -> Optional[int]:
    """``request_id`` of the ``QueryRequest`` passed as first argument."""
    return getattr(args[1], "request_id", None) if len(args) > 1 else None


def _artifact_bytes(args: Tuple[Any, ...]) -> int:
    return sum(len(text) for text in args[1].values())


def _batch_len(args: Tuple[Any, ...]) -> int:
    return len(args[1])


class _ThreadBuffer:
    """One thread's spans, open-span stack and counters."""

    def __init__(self, tid: int):
        self.tid = tid
        self.spans: List[list] = []
        self.stack: List[list] = []
        self.kernel_depth = 0
        self.counters: Dict[str, int] = {}


class SpanRecorder:
    """Patch the layer boundaries, record spans, restore on exit."""

    def __init__(self, metric_classes: Iterable[type]):
        self._lock = threading.Lock()
        self._buffers: List[_ThreadBuffer] = []
        self._local = threading.local()
        self._sids = itertools.count(1)
        self._patches = self._patch_table(set(metric_classes))
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadBuffer(threading.get_ident())
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _span_wrapper(
        self,
        name: str,
        fn: Callable[..., Any],
        rid_of: Optional[Callable[[Tuple[Any, ...]], Any]] = None,
        n_of: Optional[Callable[[Tuple[Any, ...]], int]] = None,
        outermost: bool = False,
    ) -> Callable[..., Any]:
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            buf = recorder._buffer()
            if outermost and buf.kernel_depth:
                return fn(*args, **kwargs)
            parent = buf.stack[-1] if buf.stack else None
            rid = rid_of(args) if rid_of is not None else None
            if rid is None and parent is not None:
                rid = parent[RID]
            span = [
                next(recorder._sids),
                name,
                time.perf_counter(),
                0.0,
                parent[SID] if parent is not None else None,
                rid,
                n_of(args) if n_of is not None else 0,
                buf.tid,
            ]
            buf.stack.append(span)
            if outermost:
                buf.kernel_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                if outermost:
                    buf.kernel_depth -= 1
                buf.stack.pop()
                buf.spans.append(span)

        return wrapper

    def _count_wrapper(
        self, name: str, fn: Callable[..., Any], amount: Callable[[Any], int]
    ) -> Callable[..., Any]:
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            counters = recorder._buffer().counters
            counters[name] = counters.get(name, 0) + amount(result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch_table(self, metric_classes: set) -> List[Tuple[Any, str, Any]]:
        """``(owner, attribute, wrapper factory)`` for every boundary."""
        span = self._span_wrapper
        table: List[Tuple[Any, str, Any]] = []
        for cls in sorted(metric_classes, key=lambda c: c.__name__):
            for method, n_of in KERNEL_METHODS.items():
                table.append((cls, method, lambda fn, n_of=n_of, m=method: span(
                    f"kernels.{m}", fn, n_of=n_of, outermost=True)))
        table += [
            (mtree_mod.MTree, "range_query",
             lambda fn: span("mtree.query", fn)),
            (mtree_mod.MTree, "knn_query",
             lambda fn: span("mtree.query", fn)),
            (mtree_mod.MTree, "insert", lambda fn: span("mtree.insert", fn)),
            (mtree_mod.MTree, "clone", lambda fn: span("mtree.clone", fn)),
            (common_mod, "bulk_load", lambda fn: span("mtree.bulk_load", fn)),
            (common_mod, "estimate_distance_histogram",
             lambda fn: span("core.histogram", fn)),
            (vptree_mod.VPTree, "range_query",
             lambda fn: span("vptree.query", fn)),
            (vptree_mod.VPTree, "knn_query",
             lambda fn: span("vptree.query", fn)),
            (service_mod.QueryService, "submit",
             lambda fn: span("service.submit", fn, rid_of=_request_id)),
            (admission_mod.AdmissionController, "acquire",
             lambda fn: span("service.admission_wait", fn)),
            (router_mod.Router, "execute",
             lambda fn: span("cluster.execute", fn, rid_of=_request_id)),
            (shard_mod.Shard, "submit",
             lambda fn: span("cluster.shard_submit", fn, rid_of=_request_id)),
            (threading.Thread, "start",
             lambda fn: self._count_wrapper("threads_started", fn, lambda _r: 1)),
            (ingest_mod.IngestService, "append",
             lambda fn: span("ingest.append", fn, n_of=_batch_len)),
            (ingest_mod.IngestService, "apply",
             lambda fn: span("ingest.apply", fn)),
            (ingest_mod.IngestService, "checkpoint",
             lambda fn: span("ingest.checkpoint", fn)),
            (ingest_mod.IngestService, "recover",
             lambda fn: span("ingest.recover", fn)),
            (wal_mod.WalWriter, "append_batch",
             lambda fn: span("ingest.wal_append", fn, n_of=_batch_len)),
            (wal_mod, "encode_record",
             lambda fn: self._count_wrapper("wal_bytes", fn, len)),
            (os, "fsync", lambda fn: span("os.fsync", fn)),
            (ingest_mod, "mtree_to_dict",
             lambda fn: span("persistence.serialize", fn)),
            (ingest_mod, "mtree_from_dict",
             lambda fn: span("persistence.load", fn)),
            (recovery_mod.GenerationStore, "save",
             lambda fn: span("persistence.save", fn, n_of=_artifact_bytes)),
        ]
        return table

    def __enter__(self) -> "SpanRecorder":
        if self._saved:
            raise InvalidParameterError("span recorder is already installed")
        for owner, attr, factory in self._patches:
            own = owner.__dict__.get(attr, _MISSING)
            self._saved.append((owner, attr, own))
            setattr(owner, attr, factory(getattr(owner, attr)))
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for owner, attr, own in reversed(self._saved):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._saved = []

    # -- results -----------------------------------------------------------

    def drain(self) -> Tuple[List[list], Dict[str, int]]:
        """Every finished span (by start time) and the summed counters,
        then start afresh.  Call between phases, with no span open."""
        with self._lock:
            buffers, self._buffers = self._buffers, []
        self._local = threading.local()
        spans = sorted(
            (s for buf in buffers for s in buf.spans), key=lambda s: s[START]
        )
        counters: Dict[str, int] = {}
        for buf in buffers:
            for key, value in buf.counters.items():
                counters[key] = counters.get(key, 0) + value
        return spans, counters


def write_spans(path: str, phases: Dict[str, List[list]]) -> None:
    """Dump raw spans, one list per phase, as JSON."""
    fields = ["sid", "name", "start", "end", "parent", "rid", "n", "thread"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": fields, "phases": phases}, handle)


# ---------------------------------------------------------------- analysis


def _pct(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def self_times(spans: List[list]) -> Dict[int, float]:
    """Duration minus the time covered by children on the same thread.

    Children on one thread run inside their parent one after another, so
    the time they cover is the sum of their durations.
    """
    own = {s[SID]: s[END] - s[START] for s in spans}
    for s in spans:
        parent = s[PARENT]
        if parent is not None and parent in own:
            own[parent] -= s[END] - s[START]
    return own


def _group(spans: List[list]) -> Dict[str, List[list]]:
    by_name: Dict[str, List[list]] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
    return by_name


def layer_metrics(
    phases: Dict[str, List[list]],
    counters: Dict[str, int],
    ops: int,
    wall_s: float,
    objects: int,
) -> Dict[str, float]:
    """Per-layer metrics from the spans of one traced pass.

    ``phases`` holds the spans of ``setup``, of the measured ``run`` and,
    for ingest, of the cold ``recover`` opens.  ``ops`` and ``wall_s``
    are the run's operations and wall time (an op is a query, or for
    ingest an inserted object); ``objects`` is the number of objects
    appended, for the per-object ingest ratios.  A layer the workload
    does not reach reads 0.
    """
    spans = phases["run"]
    own = self_times(spans)
    by_name = _group(spans)

    def named(prefix: str) -> List[list]:
        return [s for name, group in by_name.items()
                if name.startswith(prefix) for s in group]

    def durations(name: str, scale: float) -> List[float]:
        return [(s[END] - s[START]) * scale for s in by_name.get(name, [])]

    def selfs(name: str, scale: float) -> List[float]:
        return [own[s[SID]] * scale for s in by_name.get(name, [])]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    kernels = named("kernels.")
    kernel_s = sum(s[END] - s[START] for s in kernels)
    kernel_dists = sum(s[N] for s in kernels)
    mtree_self = selfs("mtree.query", 1e6)
    vptree_self = selfs("vptree.query", 1e6)
    out: Dict[str, float] = {
        "kernels.calls_per_op": ratio(len(kernels), ops),
        "kernels.dists_per_call": ratio(kernel_dists, len(kernels)),
        "kernels.ns_per_dist": ratio(kernel_s * 1e9, kernel_dists),
        "kernels.share": ratio(kernel_s, wall_s),
        "mtree.query_self_us_p50": _pct(mtree_self, 50),
        "mtree.query_self_us_p99": _pct(mtree_self, 99),
        "mtree.share": ratio(sum(mtree_self) / 1e6, wall_s),
        "mtree.clone_ms_p50": _pct(durations("mtree.clone", 1e3), 50),
        "vptree.query_self_us_p50": _pct(vptree_self, 50),
        "vptree.share": ratio(sum(vptree_self) / 1e6, wall_s),
        "service.submit_self_us_p50": _pct(selfs("service.submit", 1e6), 50),
        "service.admission_wait_us_p99": _pct(
            durations("service.admission_wait", 1e6), 99),
        "trace.spans_per_op": ratio(len(spans), ops),
    }
    inserts = by_name.get("mtree.insert", [])
    out["mtree.insert_us_per_obj"] = ratio(
        sum(s[END] - s[START] for s in inserts) * 1e6, len(inserts))
    setup: Dict[str, float] = {}
    for s in phases["setup"]:
        setup[s[NAME]] = setup.get(s[NAME], 0.0) + s[END] - s[START]
    out["mtree.bulk_load_s"] = setup.get("mtree.bulk_load", 0.0)
    out["core.histogram_s"] = setup.get("core.histogram", 0.0)
    out.update(_cluster_metrics(by_name, counters, ops))
    out.update(_ingest_metrics(
        by_name, _group(phases.get("recover", [])), counters, objects))
    return out


def _cluster_metrics(
    by_name: Dict[str, List[list]], counters: Dict[str, int], ops: int
) -> Dict[str, float]:
    executes = by_name.get("cluster.execute", [])
    shard_calls: Dict[Any, List[list]] = {}
    for s in by_name.get("cluster.shard_submit", []):
        shard_calls.setdefault(s[RID], []).append(s)
    overhead: List[float] = []
    delay: List[float] = []
    for e in executes:
        calls = shard_calls.get(e[RID], [])
        slowest = max((s[END] - s[START] for s in calls), default=0.0)
        overhead.append((e[END] - e[START] - slowest) * 1e3)
        delay.extend((s[START] - e[START]) * 1e3 for s in calls)
    return {
        "cluster.fanout_overhead_ms_p50": _pct(overhead, 50),
        "cluster.fanout_overhead_ms_p99": _pct(overhead, 99),
        "cluster.shard_start_delay_ms_p50": _pct(delay, 50),
        "cluster.threads_started_per_op": (
            counters.get("threads_started", 0) / ops if ops else 0.0),
    }


def _ingest_metrics(
    by_name: Dict[str, List[list]],
    recover_by_name: Dict[str, List[list]],
    counters: Dict[str, int],
    objects: int,
) -> Dict[str, float]:
    """``counters["snapshot_objects"]`` is supplied by the workload: the
    objects held by the views it checkpointed."""
    def ms(spans: List[list]) -> List[float]:
        return [(s[END] - s[START]) * 1e3 for s in spans]

    appends = by_name.get("ingest.append", [])
    wal_spans = by_name.get("ingest.wal_append", [])
    wal_ids = {s[SID] for s in wal_spans}
    fsyncs = sum(1 for s in by_name.get("os.fsync", []) if s[PARENT] in wal_ids)
    applies = by_name.get("ingest.apply", [])
    # Apply self time: the apply span minus its clone and inserts.
    apply_self = {s[SID]: s[END] - s[START] for s in applies}
    for name in ("mtree.clone", "mtree.insert"):
        for s in by_name.get(name, []):
            if s[PARENT] in apply_self:
                apply_self[s[PARENT]] -= s[END] - s[START]
    # Replay: a cold open minus loading the snapshot, per replayed object.
    recover_s = sum(s[END] - s[START]
                    for s in recover_by_name.get("ingest.recover", []))
    load_s = sum(s[END] - s[START]
                 for s in recover_by_name.get("persistence.load", []))
    replayed = len(recover_by_name.get("mtree.insert", []))
    saves = by_name.get("persistence.save", [])
    snapshot_objects = counters.get("snapshot_objects", 0)
    return {
        "ingest.wal_append_us_p50": _pct(ms(wal_spans), 50) * 1e3,
        "ingest.wal_append_us_p99": _pct(ms(wal_spans), 99) * 1e3,
        "ingest.fsyncs_per_batch": fsyncs / len(appends) if appends else 0.0,
        "ingest.wal_bytes_per_obj": (
            counters.get("wal_bytes", 0) / objects if objects else 0.0),
        "ingest.apply_ms_p50": _pct(ms(applies), 50),
        "ingest.apply_ms_p99": _pct(ms(applies), 99),
        "ingest.apply_self_ms_p50": _pct(
            [v * 1e3 for v in apply_self.values()], 50),
        "ingest.replay_us_per_obj": (
            (recover_s - load_s) * 1e6 / replayed if replayed else 0.0),
        "persistence.serialize_ms_p50": _pct(
            ms(by_name.get("persistence.serialize", [])), 50),
        "persistence.save_ms_p50": _pct(ms(saves), 50),
        "persistence.snapshot_bytes_per_obj": (
            sum(s[N] for s in saves) / snapshot_objects
            if snapshot_objects else 0.0),
    }
