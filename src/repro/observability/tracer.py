"""Span-based query tracing.

A :class:`Tracer` records a tree of :class:`Span`\\ s — typically
``query -> level -> distance_eval`` for an M-tree range query and
``query -> node_visit -> distance_eval`` for k-NN — each carrying a
wall-clock start time, monotonic start/end times (so durations are
immune to clock adjustments) and free-form attributes.  The buffer is bounded: past
``max_spans`` finished spans, new ones are counted in ``dropped`` instead
of stored, so tracing a long workload cannot exhaust memory.

The ``detail`` level decides how deep instrumented code descends:

* ``"query"``    — one span per query (cheap; the default);
* ``"node"``     — plus one span per tree level (range searches) or per
  accessed node (k-NN);
* ``"distance"`` — plus one span per batched distance evaluation.

Like the registry, the tracer is opt-in: hot paths fetch the active
tracer once per query and skip all span work when it is ``None``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from ..exceptions import InvalidParameterError

__all__ = ["Span", "Tracer"]

_DETAIL_LEVELS = ("query", "node", "distance")


@dataclass
class Span:
    """One timed operation in a trace tree."""

    name: str
    span_id: int
    parent_id: Optional[int]
    depth: int
    start_wall: float  # time.time() at start
    start_mono: float  # time.perf_counter() at start
    end_mono: Optional[float] = None
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> Optional[float]:
        if self.end_mono is None:
            return None
        return self.end_mono - self.start_mono

    def set(self, **attributes: Any) -> None:
        """Attach attributes to the span (e.g. the costs it paid)."""
        self.attributes.update(attributes)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "start_wall": self.start_wall,
            "duration_s": self.duration_s,
            "attributes": dict(self.attributes),
        }


class Tracer:
    """Collects spans into a bounded buffer, preserving nesting.

    Thread safety: the finished-span buffer, drop counter and id counter
    are guarded by a lock, and the *open*-span stack is thread-local — so
    concurrent service workers each build their own correctly-nested
    span tree while sharing one buffer.  Parent/child links therefore
    never cross threads.  :meth:`reset` clears the shared buffer and the
    calling thread's stack; other threads' open spans (if any) simply
    finish into the fresh buffer.
    """

    def __init__(self, detail: str = "query", max_spans: int = 100_000):
        if detail not in _DETAIL_LEVELS:
            raise InvalidParameterError(
                f"detail must be one of {_DETAIL_LEVELS}, got {detail!r}"
            )
        if max_spans < 1:
            raise InvalidParameterError(
                f"max_spans must be >= 1, got {max_spans}"
            )
        self.detail = detail
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def _stack(self) -> List[Span]:
        """The calling thread's stack of currently-open spans."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # Hot paths test these once per query, not the string each time.
    @property
    def trace_nodes(self) -> bool:
        return self.detail in ("node", "distance")

    @property
    def trace_distances(self) -> bool:
        return self.detail == "distance"

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a child span of the current span; closes on exit."""
        stack = self._stack
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        opened = Span(
            name=name,
            span_id=span_id,
            parent_id=stack[-1].span_id if stack else None,
            depth=len(stack),
            start_wall=time.time(),
            start_mono=time.perf_counter(),
            attributes=dict(attributes),
        )
        stack.append(opened)
        try:
            yield opened
        finally:
            opened.end_mono = time.perf_counter()
            stack.pop()
            with self._lock:
                if len(self.spans) < self.max_spans:
                    self.spans.append(opened)
                else:
                    self.dropped += 1

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            self.dropped = 0
            self._next_id = 0
        self._stack.clear()

    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def render(self, max_lines: int = 200) -> str:
        """Indented text view of the recorded trace, in start order."""
        if not self.spans:
            return "(no spans recorded)"
        ordered = sorted(self.spans, key=lambda s: (s.start_mono, s.span_id))
        lines: List[str] = []
        for span in ordered[:max_lines]:
            duration = span.duration_s
            timing = f"{duration * 1e3:.3f} ms" if duration is not None else "?"
            attrs = " ".join(
                f"{k}={v}" for k, v in sorted(span.attributes.items())
            )
            indent = "  " * span.depth
            lines.append(
                f"{indent}{span.name} [{timing}]" + (f" {attrs}" if attrs else "")
            )
        hidden = len(ordered) - min(len(ordered), max_lines)
        if hidden:
            lines.append(f"... ({hidden} more spans)")
        if self.dropped:
            lines.append(f"... ({self.dropped} spans dropped at capacity)")
        return "\n".join(lines)
