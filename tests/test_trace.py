"""The tracing subsystem: spans, attachment, analysis, instrumentation."""

from __future__ import annotations

import random

import pytest

from repro import trace
from repro.faas.cluster import FaasCluster
from repro.faas.records import InvocationPath
from repro.linuxnode.config import LinuxNodeConfig
from repro.linuxnode.node import LinuxNode
from repro.mem.frames import FrameAllocator
from repro.seuss.node import SeussNode
from repro.sim import Environment
from repro.trace import NULL_TRACER, NullTracer, Tracer, tracer_for
from repro.trace.analysis import (
    SELF_TIME,
    breakdown_rows,
    coverage_residual,
    critical_path,
    stage_totals,
)
from repro.workload.functions import (
    io_bound_function,
    nop_function,
    unique_nop_set,
)


# -- span recording ---------------------------------------------------------
class TestSpans:
    def test_span_edges_from_explicit_stamps(self):
        tracer = Tracer()
        root = tracer.span("root", at=10.0)
        root.finish(at=25.0)
        assert root.start_ms == 10.0
        assert root.end_ms == 25.0
        assert root.duration_ms == 15.0
        assert root.finished

    def test_children_inherit_track_roots_open_new_ones(self):
        tracer = Tracer()
        a = tracer.span("a", at=0.0)
        child = a.span("a.1", at=1.0)
        b = tracer.span("b", at=2.0)
        assert child.track == a.track
        assert b.track != a.track
        assert child.parent_id == a.span_id
        assert b.parent_id is None

    def test_done_records_closed_child(self):
        tracer = Tracer()
        root = tracer.span("root", at=0.0)
        stage = root.done("stage", 0.0, 4.0, kind="test")
        assert stage.finished
        assert stage.duration_ms == 4.0
        assert tracer.children(root) == [stage]
        assert stage.attrs["kind"] == "test"

    def test_context_manager_finishes(self):
        tracer = Tracer()
        with tracer.span("ctx", at=3.0) as span:
            pass
        assert span.finished

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        span = tracer.span("once", at=0.0)
        span.finish(at=5.0)
        span.finish(at=9.0)
        assert span.end_ms == 5.0

    def test_counters_accumulate_and_gauges_do_not(self):
        tracer = Tracer()
        assert tracer.counter("pages", 3, at=0.0) == 3
        assert tracer.counter("pages", 2, at=1.0) == 5
        tracer.gauge("held_mb", 7.5, at=2.0)
        assert tracer.counter_total("pages") == 5
        assert [s.value for s in tracer.counters] == [3, 5, 7.5]

    def test_events_are_stamped(self):
        tracer = Tracer()
        tracer.event("hit", at=4.5, key="fn")
        (event,) = tracer.events
        assert event.ts_ms == 4.5
        assert event.attrs == {"key": "fn"}


# -- attachment -------------------------------------------------------------
class TestAttachment:
    def test_attach_binds_env_clock(self, env):
        tracer = Tracer()
        tracer.attach(env)
        try:
            assert env.tracer is tracer
            assert tracer_for(env) is tracer
            assert trace.current() is tracer
            env.run(until=5.0)
            span = tracer.span("now")
            assert span.start_ms == 5.0
        finally:
            tracer.detach(env)
        assert tracer_for(env) is NULL_TRACER
        assert trace.current() is NULL_TRACER

    def test_enable_disable_global(self):
        tracer = Tracer()
        trace.enable(tracer)
        try:
            assert trace.current() is tracer
            env = Environment()
            assert tracer_for(env) is tracer
        finally:
            trace.disable()
        assert trace.current() is NULL_TRACER

    def test_attached_tracer_records_only_its_environment(self):
        tracer = Tracer()
        traced = Environment()
        tracer.attach(traced)
        try:
            other = Environment()
            cluster = FaasCluster.with_seuss_node(other)
            assert tracer_for(other) is NULL_TRACER
            assert cluster.invoke_sync(nop_function()).success
        finally:
            tracer.detach(traced)
        assert tracer.spans == []
        assert tracer.roots("invocation") == []

    def test_attached_tracer_records_no_cache_or_memory_of_another_environment(self):
        """The caches, policies and memory of a node record into their
        node's environment's tracer, not into the one most recently
        attached elsewhere (it used to collect 5 events and 28 counter
        samples from this invocation)."""
        tracer = Tracer()
        traced = Environment()
        tracer.attach(traced)
        try:
            cluster = FaasCluster.with_seuss_node(Environment())
            assert cluster.invoke_sync(nop_function()).success
        finally:
            tracer.detach(traced)
        assert tracer.spans == []
        assert tracer.events == []
        assert tracer.counters == []

    def test_env_less_objects_record_into_the_active_tracer(self):
        """An allocator built without an environment still records
        into whichever tracer is attached."""
        allocator = FrameAllocator(64)
        allocator.pressure_threshold_pages = 8
        env = Environment()
        tracer = Tracer().attach(env)
        try:
            allocator.allocate(60)
        finally:
            tracer.detach(env)
        assert [event.name for event in tracer.events] == ["mem.pressure"]

    def test_disable_removes_the_enabled_tracer_not_an_attached_one(self):
        enabled, attached = Tracer(), Tracer()
        env = Environment()
        trace.enable(enabled)
        attached.attach(env)
        try:
            trace.disable()
            assert trace.current() is attached
            assert tracer_for(Environment()) is NULL_TRACER
            assert tracer_for(env) is attached
        finally:
            attached.detach(env)
        assert trace.current() is NULL_TRACER

    def test_detach_restores_the_tracer_attached_before(self, env):
        """Detaching the later of two tracers on one environment hands
        the environment back to the earlier one (it used to leave the
        environment with none while ``current()`` still named it)."""
        first, second = Tracer(), Tracer()
        first.attach(env)
        second.attach(env)
        try:
            second.detach(env)
            assert tracer_for(env) is first
            assert trace.current() is first
            env.run(until=3.0)
            assert first.span("resumed").start_ms == 3.0
        finally:
            first.detach(env)
        assert tracer_for(env) is NULL_TRACER
        assert trace.current() is NULL_TRACER

    def test_detach_out_of_order_falls_back_to_no_detached_tracer(self, env):
        first, second = Tracer(), Tracer()
        first.attach(env)
        second.attach(env)
        first.detach(env)
        assert tracer_for(env) is second
        second.detach(env)
        assert tracer_for(env) is NULL_TRACER
        assert trace.current() is NULL_TRACER

    def test_detach_keeps_a_tracer_attached_to_two_environments(self):
        tracer, other = Tracer(), Tracer()
        a, b = Environment(), Environment(initial_time=7.0)
        tracer.attach(a)
        other.attach(b)
        tracer.attach(b)
        tracer.detach(a)
        after_a = (tracer_for(a), tracer_for(b), tracer.now())
        tracer.detach(b)
        after_b = tracer_for(b)
        other.detach(b)
        assert after_a == (NULL_TRACER, tracer, 7.0)
        assert after_b is other
        assert trace.current() is NULL_TRACER

    def test_last_ts_high_water_clock(self):
        tracer = Tracer()
        tracer.event("late", at=12.0)
        tracer.event("unstamped")  # env-less: falls back to high water
        assert tracer.events[1].ts_ms == 12.0

    def test_null_tracer_records_nothing(self):
        null = NullTracer()
        span = null.span("x", at=1.0)
        child = span.span("y")
        child.done("z", 0.0, 1.0)
        span.event("e")
        null.counter("c", 5)
        null.gauge("g", 2)
        with null.span("ctx"):
            pass
        assert not null.enabled
        assert len(null.spans) == 0
        assert len(null.events) == 0
        assert len(null.counters) == 0


# -- analysis ---------------------------------------------------------------
def _sample_tree():
    """root [0..10] with stages a [0..4], b [5..9]; 2 ms uncovered."""
    tracer = Tracer()
    root = tracer.span("root", at=0.0)
    root.done("a", 0.0, 4.0)
    root.done("b", 5.0, 9.0)
    root.finish(at=10.0)
    return tracer, root


class TestAnalysis:
    def test_critical_path_inserts_self_segments(self):
        tracer, root = _sample_tree()
        segments = critical_path(tracer, root)
        assert [(s.name, s.start_ms, s.end_ms) for s in segments] == [
            ("a", 0.0, 4.0),
            (SELF_TIME, 4.0, 5.0),
            ("b", 5.0, 9.0),
            (SELF_TIME, 9.0, 10.0),
        ]
        assert sum(s.duration_ms for s in segments) == root.duration_ms

    def test_coverage_residual(self):
        tracer, root = _sample_tree()
        assert coverage_residual(tracer, root) == pytest.approx(2.0)

    def test_coverage_residual_zero_when_tiled(self):
        tracer = Tracer()
        root = tracer.span("root", at=0.0)
        root.done("a", 0.0, 6.0)
        root.done("b", 6.0, 10.0)
        root.finish(at=10.0)
        assert coverage_residual(tracer, root) == 0.0

    def test_open_root_rejected(self):
        tracer = Tracer()
        root = tracer.span("open", at=0.0)
        with pytest.raises(ValueError):
            critical_path(tracer, root)
        with pytest.raises(ValueError):
            coverage_residual(tracer, root)

    def test_stage_totals_first_seen_order(self):
        tracer = Tracer()
        roots = []
        for base in (0.0, 100.0):
            root = tracer.span("root", at=base)
            root.done("exec", base, base + 2.0)
            root.done("io", base + 2.0, base + 3.0)
            root.finish(at=base + 3.0)
            roots.append(root)
        stats = stage_totals(tracer, roots)
        assert list(stats) == ["exec", "io"]
        assert stats["exec"].count == 2
        assert stats["exec"].mean_ms == pytest.approx(2.0)

    def test_breakdown_rows_group_and_share(self):
        tracer = Tracer()
        for path, base in (("cold", 0.0), ("hot", 50.0)):
            root = tracer.span("invocation", at=base, path=path)
            root.done("exec", base, base + 4.0)
            root.finish(at=base + 4.0)
        rows = breakdown_rows(
            tracer, tracer.roots(), group_order=["cold", "hot"]
        )
        assert rows == [
            ("cold", "exec", 4.0, 100.0),
            ("cold", "end-to-end", 4.0, 100.0),
            ("hot", "exec", 4.0, 100.0),
            ("hot", "end-to-end", 4.0, 100.0),
        ]


# -- live instrumentation ---------------------------------------------------
class TestInstrumentation:
    @pytest.fixture
    def traced_node(self):
        env = Environment()
        tracer = Tracer()
        tracer.attach(env)
        node = SeussNode(env)
        node.initialize_sync()
        yield tracer, node
        tracer.detach(env)

    def test_stages_sum_to_latency_on_every_path(self, traced_node):
        tracer, node = traced_node
        fn = nop_function()
        expected = [
            InvocationPath.COLD, InvocationPath.HOT, InvocationPath.HOT
        ]
        results = [node.invoke_sync(fn) for _ in expected]
        roots = tracer.roots("invocation")
        assert len(roots) == len(results)
        for result, want, root in zip(results, expected, roots):
            assert result.path is want
            assert root.attrs["path"] == want.value
            assert root.duration_ms == pytest.approx(result.latency_ms)
            assert coverage_residual(tracer, root) == pytest.approx(
                0.0, abs=1e-9
            )

    def test_cold_stage_names_nest_under_root(self, traced_node):
        tracer, node = traced_node
        node.invoke_sync(nop_function())
        (root,) = tracer.roots("invocation")
        stages = [c.name for c in tracer.children(root)]
        assert stages[0] == "queue_wait"
        for name in ("uc_create", "import_compile", "execute"):
            assert name in stages
        assert all(c.track == root.track for c in tracer.children(root))

    def test_node_init_traced(self, traced_node):
        tracer, node = traced_node
        (init_root,) = tracer.roots("node")
        assert init_root.finished
        boots = tracer.children(init_root)
        assert len(boots) == len(node.config.runtimes)
        stage_names = {c.name for b in boots for c in tracer.children(b)}
        assert "boot" in stage_names
        assert "snapshot_capture" in stage_names

    def test_cache_events_and_page_counters(self, traced_node):
        tracer, node = traced_node
        fn = nop_function()
        node.invoke_sync(fn)  # cold: miss + insert
        node.uc_cache.drop_function(fn.key)
        node.invoke_sync(fn)  # warm: snapshot hit
        event_names = {e.name for e in tracer.events}
        assert "snapshot_cache.miss" in event_names
        assert "snapshot_cache.insert" in event_names
        assert "snapshot_cache.hit" in event_names
        assert "snapshot.capture" in event_names
        assert tracer.counter_total("mem.pages_copied") > 0
        assert tracer.counter_total("mem.cow_faults") > 0

    def test_untraced_node_records_nothing(self):
        node = SeussNode(Environment())
        node.initialize_sync()
        result = node.invoke_sync(nop_function())
        assert result.success
        assert trace.current() is NULL_TRACER
        assert len(NULL_TRACER.spans) == 0


class TestLinuxInstrumentation:
    """A traced Linux node records the same ``invocation`` roots, and
    stage spans that tile them, as a SEUSS one."""

    def test_stage_spans_tile_each_root_and_sum_to_its_breakdown(self):
        env = Environment()
        tracer = Tracer()
        tracer.attach(env)
        try:
            node = LinuxNode(env, LinuxNodeConfig(stemcell_pool_size=4))
            node.start_stemcell_pool()
            functions = unique_nop_set(16) + [io_bound_function("io")]
            rng = random.Random(7)
            pending = [rng.choice(functions) for _ in range(200)]
            processes = []

            def worker():
                while pending:
                    process = node.invoke(pending.pop())
                    processes.append(process)
                    yield process

            env.run(until=env.all_of([env.process(worker()) for _ in range(8)]))
        finally:
            tracer.detach(env)
        roots = tracer.roots("invocation")
        results = [process.value for process in processes]
        assert len(roots) == len(results) == 200
        assert {result.path for result in results} == {
            InvocationPath.COLD, InvocationPath.WARM, InvocationPath.HOT
        }
        assert any("io_wait" in result.breakdown for result in results)
        for root, result in zip(roots, results):
            assert root.attrs["function"] == result.function_key
            assert root.attrs["path"] == result.path.value
            assert root.duration_ms == pytest.approx(result.latency_ms)
            assert coverage_residual(tracer, root) == pytest.approx(
                0.0, abs=1e-9
            )
            # Every billed stage is a span of that name; each core
            # request is a ``queue_wait`` span only.  Container creation
            # is billed after it ends (``charge_since``) and still spans
            # it exactly.
            children = tracer.children(root)
            queue_waits = [c for c in children if c.name == "queue_wait"]
            assert len(queue_waits) == (2 if "io_wait" in result.breakdown else 1)
            spans = {}
            for child in children:
                if child.name != "queue_wait":
                    spans[child.name] = (
                        spans.get(child.name, 0.0) + child.duration_ms
                    )
            assert spans == pytest.approx(result.breakdown)
