"""Observability: metrics registry, query tracing, profiling hooks.

The paper's contribution is *predicting* observable per-query quantities —
node reads and distance computations (Eqs. 5-8) — so this package makes the
observations first-class (see ``docs/observability.md``):

* :mod:`~repro.observability.registry` — a process-local
  :class:`MetricsRegistry` of labelled counters/gauges/histograms with a
  JSON-round-trippable :class:`MetricsSnapshot`;
* :mod:`~repro.observability.tracer` — a span-based :class:`Tracer`
  (``query -> level / node_visit -> distance_eval``) with wall-clock and monotonic
  timings;
* :mod:`~repro.observability.hooks` — :func:`profile` (context manager)
  and :func:`profiled` (decorator) timing hooks.

Instrumentation is **opt-in and zero-cost when disabled**: the default
state is no registry and no tracer, and every instrumented hot path guards
its updates with a single ``is None`` check.

::

    from repro import observability

    observability.install()                  # counters on
    ...run queries...
    snap = observability.snapshot()
    print(snap.render())                     # or snap.to_json()
    observability.uninstall()                # back to zero-cost

``install(tracing="node")`` additionally records per-node spans;
``python -m repro metrics`` renders or round-trips snapshots from the
command line.
"""

from __future__ import annotations

from typing import Optional

from . import state
from .hooks import profile, profiled
from .registry import (
    HistogramData,
    MetricSeries,
    MetricsRegistry,
    MetricsSnapshot,
)
from .tracer import Span, Tracer

__all__ = [
    "MetricsRegistry",
    "MetricsSnapshot",
    "MetricSeries",
    "HistogramData",
    "Tracer",
    "Span",
    "install",
    "uninstall",
    "installed",
    "active_registry",
    "active_tracer",
    "get_registry",
    "get_tracer",
    "snapshot",
    "reset",
    "profile",
    "profiled",
]


def install(
    registry: Optional[MetricsRegistry] = None,
    tracing: Optional[str] = None,
    tracer: Optional[Tracer] = None,
) -> MetricsRegistry:
    """Turn observability on; returns the now-active registry.

    ``tracing`` is a :class:`Tracer` detail level (``"query"``, ``"node"``
    or ``"distance"``); leave it ``None`` to collect counters only.  An
    explicit ``tracer`` instance overrides ``tracing``.  Calling
    ``install`` again replaces the active objects (the previous ones keep
    their collected data for whoever holds a reference).

    Safe to call while queries are in flight: in-flight operations keep
    updating whichever registry/tracer they snapshotted at their start
    (see the memory-model note in :mod:`repro.observability.state`).
    """
    new_registry = registry if registry is not None else MetricsRegistry()
    if tracer is not None:
        new_tracer: Optional[Tracer] = tracer
    elif tracing is not None:
        new_tracer = Tracer(detail=tracing)
    else:
        new_tracer = None
    with state._lock:
        state.registry = new_registry
        state.tracer = new_tracer
    return new_registry


def uninstall() -> None:
    """Turn observability off: hot paths go back to zero-cost."""
    with state._lock:
        state.registry = None
        state.tracer = None


def installed() -> bool:
    """True while observability is installed (a registry is active)."""
    return state.registry is not None


def active_registry() -> Optional[MetricsRegistry]:
    """The registry hot paths should update, or ``None`` when disabled."""
    return state.registry


def active_tracer() -> Optional[Tracer]:
    """The tracer hot paths should open spans on, or ``None``."""
    return state.tracer


def get_registry() -> MetricsRegistry:
    """The active registry, installing a fresh one if none is active."""
    if state.registry is None:
        return install()
    return state.registry


def get_tracer() -> Optional[Tracer]:
    """The tracer hot paths should emit spans to, or ``None`` when off."""
    return state.tracer


def snapshot() -> MetricsSnapshot:
    """Snapshot the active registry (empty snapshot when disabled)."""
    with state._lock:
        active = state.registry
    if active is None:
        return MetricsRegistry().snapshot()
    return active.snapshot()


def reset() -> None:
    """Clear the active registry and tracer without uninstalling them."""
    with state._lock:
        active_reg, active_tr = state.registry, state.tracer
    if active_reg is not None:
        active_reg.reset()
    if active_tr is not None:
        active_tr.reset()
