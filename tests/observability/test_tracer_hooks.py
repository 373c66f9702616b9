"""Unit tests for the span tracer and the profiling hooks."""

from __future__ import annotations

import numpy as np
import pytest

from repro import observability
from repro.exceptions import InvalidParameterError
from repro.metrics import L2
from repro.mtree import NodeLayout, bulk_load
from repro.observability import Tracer, profile, profiled


class TestTracer:
    def test_nesting_and_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.depth == 1
        assert len(tracer.spans) == 2
        assert tracer.roots() == [outer]

    def test_span_records_duration_and_attributes(self):
        tracer = Tracer()
        with tracer.span("op", radius=0.25) as span:
            span.set(nodes=3)
        assert span.duration_s is not None and span.duration_s >= 0
        assert span.attributes == {"radius": 0.25, "nodes": 3}

    def test_detail_levels(self):
        assert not Tracer(detail="query").trace_nodes
        node = Tracer(detail="node")
        assert node.trace_nodes and not node.trace_distances
        dist = Tracer(detail="distance")
        assert dist.trace_nodes and dist.trace_distances

    def test_invalid_detail_rejected(self):
        with pytest.raises(InvalidParameterError):
            Tracer(detail="verbose")

    def test_bounded_buffer_counts_drops(self):
        tracer = Tracer(max_spans=2)
        for _ in range(5):
            with tracer.span("op"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3
        assert "dropped" in tracer.render()

    def test_reset(self):
        tracer = Tracer()
        with tracer.span("op"):
            pass
        tracer.reset()
        assert tracer.spans == [] and tracer.dropped == 0
        assert "(no spans recorded)" in tracer.render()

    def test_render_indents_children(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        lines = tracer.render().splitlines()
        assert lines[0].startswith("parent")
        assert lines[1].startswith("  child")

    def test_span_closed_even_on_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                # metalint: ignore[exception-hierarchy] — deliberately
                # foreign error: spans must close on *any* exception type
                raise ValueError("boom")
        assert len(tracer.spans) == 1
        assert tracer.spans[0].duration_s is not None
        assert tracer._stack == []


class TestQuerySpans:
    """Instrumented M-tree queries produce the documented span tree."""

    @pytest.fixture()
    def tree(self):
        points = np.random.default_rng(42).random((200, 3))
        layout = NodeLayout(node_size_bytes=256, object_bytes=16)
        return bulk_load(points, L2(), layout, seed=1)

    def test_query_detail_yields_one_root_span(self, tree):
        observability.install(tracing="query")
        tracer = observability.active_tracer()
        tree.range_query(np.full(3, 0.5), 0.3)
        roots = tracer.roots()
        assert [s.name for s in roots] == ["mtree.range_query"]
        assert roots[0].attributes["nodes"] >= 1
        assert roots[0].attributes["dists"] >= 1

    def test_node_detail_yields_level_children(self, tree):
        observability.install(tracing="node")
        tracer = observability.active_tracer()
        result = tree.range_query(np.full(3, 0.5), 0.3)
        levels = [s for s in tracer.spans if s.name == "mtree.level"]
        assert [s.attributes["level"] for s in levels] == list(
            range(1, tree.height + 1)
        )
        assert sum(s.attributes["nodes"] for s in levels) == (
            result.stats.nodes_accessed
        )
        assert sum(s.attributes["entries"] for s in levels) == (
            result.stats.dists_computed
        )
        root = tracer.roots()[0]
        assert all(s.parent_id == root.span_id for s in levels)

    def test_knn_keeps_node_visit_spans(self, tree):
        observability.install(tracing="node")
        tracer = observability.active_tracer()
        result = tree.knn_query(np.full(3, 0.5), 5)
        visits = [s for s in tracer.spans if s.name == "mtree.node_visit"]
        assert len(visits) == result.stats.nodes_accessed

    def test_distance_detail_yields_eval_grandchildren(self, tree):
        observability.install(tracing="distance")
        tracer = observability.active_tracer()
        result = tree.range_query(np.full(3, 0.5), 0.3)
        evals = [s for s in tracer.spans if s.name == "mtree.distance_eval"]
        assert evals, "distance detail should record distance_eval spans"
        assert sum(s.attributes["n"] for s in evals) == (
            result.stats.dists_computed
        )
        level_ids = {
            s.span_id for s in tracer.spans if s.name == "mtree.level"
        }
        assert all(s.parent_id in level_ids for s in evals)


class TestProfilingHooks:
    def test_profile_records_histogram(self, installed_registry):
        with profile("build"):
            pass
        hist = installed_registry.histogram("profile.seconds", name="build")
        assert hist is not None and hist.count == 1

    def test_profile_labels(self, installed_registry):
        with profile("query", kind="range"):
            pass
        hist = installed_registry.histogram(
            "profile.seconds", name="query", kind="range"
        )
        assert hist is not None and hist.count == 1

    def test_profiled_decorator_uses_function_name(self, installed_registry):
        @profiled()
        def expensive():
            return 41 + 1

        assert expensive() == 42
        hist = installed_registry.histogram(
            "profile.seconds", name=expensive.__qualname__
        )
        assert hist is not None and hist.count == 1

    def test_profiled_decorator_explicit_name(self, installed_registry):
        @profiled("custom")
        def fn():
            return "ok"

        assert fn() == "ok"
        assert installed_registry.histogram(
            "profile.seconds", name="custom"
        ).count == 1

    def test_profile_is_noop_when_uninstalled(self):
        with profile("anything"):
            pass  # must not raise, must not create a registry
        assert not observability.installed()

    def test_profile_opens_span_when_tracing(self):
        observability.install(tracing="query")
        with profile("step"):
            pass
        tracer = observability.active_tracer()
        assert [s.name for s in tracer.spans] == ["profile:step"]
