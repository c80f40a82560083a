"""Platform-layer tests: records, registry, bus, server, controller, cluster."""

from __future__ import annotations

import gc

import pytest

from repro.costs import CostBook, PlatformCostModel
from repro.errors import ConfigError
from repro.faas import (
    ExternalHttpServer,
    FaasCluster,
    FunctionRegistry,
    FunctionSpec,
    InvocationPath,
    MessageBus,
)
from repro.faults import FaultPlan
from repro.metrics.collector import TrialMetrics
from repro.seuss.config import SeussConfig
from repro.sim import Environment, Process, SimulationError
from repro.workload.functions import io_bound_function, nop_function, unique_nop_set
from repro.workload.generator import LoadGenerator, TrialConfig
from tests.census import call_census, deploy_call_census


@pytest.fixture(scope="module")
def deploy_calls():
    """One profiled census of cold and of warm deploys, which the cold
    and the warm call budgets share."""
    return deploy_call_census(50)


class TestFunctionSpec:
    def test_key_combines_owner_and_name(self):
        fn = FunctionSpec(name="f", owner="alice")
        assert fn.key == "alice/f"

    def test_same_code_different_owners_are_unique(self):
        first = nop_function(owner="a")
        second = nop_function(owner="b")
        assert first.key != second.key

    def test_duration_includes_io(self):
        fn = io_bound_function("io")
        assert fn.duration_ms == fn.exec_ms + 250.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            FunctionSpec(name="")
        with pytest.raises(ConfigError):
            FunctionSpec(name="x", exec_ms=-1)
        with pytest.raises(ConfigError):
            FunctionSpec(name="x", exec_write_pages=-1)

    def test_result_latency(self):
        from repro.faas.records import InvocationResult

        result = InvocationResult(
            request_id=1,
            function_key="k",
            path=InvocationPath.HOT,
            success=True,
            sent_at_ms=100.0,
            finished_at_ms=150.0,
        )
        assert result.latency_ms == 50.0


class TestRegistry:
    def test_register_and_get(self):
        registry = FunctionRegistry()
        fn = nop_function()
        registry.register(fn)
        assert registry.get(fn.key) is fn
        assert fn.key in registry
        assert len(registry) == 1

    def test_duplicate_rejected(self):
        registry = FunctionRegistry([nop_function()])
        with pytest.raises(ConfigError):
            registry.register(nop_function())

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            FunctionRegistry().get("missing/fn")

    def test_iteration(self):
        fns = [nop_function(owner=f"o{i}") for i in range(3)]
        registry = FunctionRegistry(fns)
        assert sorted(registry.keys()) == sorted(fn.key for fn in fns)
        assert len(list(registry)) == 3


class TestMessageBus:
    def test_publish_consume(self, env):
        bus = MessageBus(env)
        bus.publish_nowait("topic", "msg")

        def consumer():
            return (yield bus.consume("topic"))

        assert env.run(until=env.process(consumer())) == "msg"

    def test_consume_blocks_until_publish(self, env):
        bus = MessageBus(env)

        def consumer():
            message = yield bus.consume("t")
            return (message, env.now)

        def producer():
            yield env.timeout(9)
            yield from bus.publish("t", "hello")

        env.process(producer())
        assert env.run(until=env.process(consumer())) == ("hello", 9.0)

    def test_hop_latency(self, env):
        bus = MessageBus(env, hop_latency_ms=5.0)

        def producer():
            yield from bus.publish("t", "x")
            return env.now

        assert env.run(until=env.process(producer())) == 5.0

    def test_stats(self, env):
        bus = MessageBus(env)
        bus.publish_nowait("t", 1)
        bus.publish_nowait("t", 2)
        assert bus.stats["t"].published == 2
        assert bus.stats["t"].max_depth == 2
        assert bus.depth("t") == 2

    def test_take_nowait(self, env):
        bus = MessageBus(env)
        bus.publish_nowait("t", "msg")
        assert bus.take_nowait("t") == "msg"
        assert bus.stats["t"].consumed == 1
        assert env.peek() == float("inf")
        with pytest.raises(IndexError):
            bus.take_nowait("t")

    def test_a_publish_held_past_dispatch_is_waited_for(self):
        """The controller takes its ``invoke`` message with no event when
        the topic holds it; a publish a fault holds back past the
        dispatch tick is waited for through ``consume`` instead."""
        fn = nop_function()
        baseline = FaasCluster.with_seuss_node(Environment()).invoke_sync(fn)
        env = Environment()
        cluster = FaasCluster.with_seuss_node(
            env, faults=FaultPlan(bus_drop_p=1.0, bus_redeliver_ms=500.0)
        )
        result = cluster.invoke_sync(fn)
        assert result.success and result.path is InvocationPath.COLD
        held_ms = 500.0 - cluster.controller.pre_node_ms
        assert result.latency_ms == pytest.approx(baseline.latency_ms + held_ms)
        assert cluster.controller.bus.stats["invoke"].consumed == 1

    def test_negative_latency_rejected(self, env):
        with pytest.raises(ValueError):
            MessageBus(env, hop_latency_ms=-1)


class TestExternalServer:
    def test_blocks_for_configured_time(self, env):
        server = ExternalHttpServer(env, block_ms=250.0)

        def client():
            reply = yield env.process(server.handle())
            return (reply, env.now)

        assert env.run(until=env.process(client())) == ("OK", 250.0)

    def test_tracks_concurrency(self, env):
        server = ExternalHttpServer(env)
        procs = [env.process(server.handle()) for _ in range(5)]
        env.run(until=env.all_of(procs))
        assert server.stats.requests == 5
        assert server.stats.max_concurrent == 5
        assert server.in_flight == 0


class TestControllerAndCluster:
    def test_seuss_cluster_end_to_end(self):
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env)
        result = cluster.invoke_sync(nop_function())
        assert result.success
        assert result.path is InvocationPath.COLD
        # control plane + shim + node-side cold.
        assert result.latency_ms == pytest.approx(204 + 8 + 7.5, abs=0.5)

    def test_hot_invocation_event_budget(self):
        """Engine events one hot ``invoke`` costs on a warmed default
        cluster.  Pinned exactly: an event added to the hot path fails
        here (the bus publish nothing waits on schedules none, nor do
        the shim's line and the claim of a free core).  The seven: the
        pre-node timeout, the shim departure, ``arg_import``, the
        merged ``execute``/``result_return`` timeout, the node
        process's end, the post-node timeout and the controller's end."""
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env)
        fn = nop_function()
        cluster.invoke_sync(fn)
        cluster.invoke_sync(fn)
        before = env.events_processed
        result = cluster.invoke_sync(fn)
        assert result.path is InvocationPath.HOT
        assert env.events_processed - before == 7

    def test_warm_invocation_event_budget(self):
        """A warm ``invoke`` (function snapshot cached, no idle UC)
        costs 3 events more than a hot one: the UC's creation, its
        connection and its copy-on-write faults."""
        env = Environment()
        cluster = FaasCluster.with_seuss_node(
            env, config=SeussConfig(cache_idle_ucs=False)
        )
        fn = nop_function()
        cluster.invoke_sync(fn)
        before = env.events_processed
        result = cluster.invoke_sync(fn)
        assert result.path is InvocationPath.WARM
        assert env.events_processed - before == 10

    def test_cold_invocation_event_budget(self):
        """The first ``invoke`` of a function on a fresh cluster costs
        2 events more than a warm one: the code import and the snapshot
        capture."""
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env)
        before = env.events_processed
        result = cluster.invoke_sync(nop_function())
        assert result.path is InvocationPath.COLD
        assert env.events_processed - before == 12

    def test_linux_hot_invocation_event_budget(self):
        """A hot ``invoke`` on a default Linux cluster: the pre-node
        timeout, the hot container stage, ``execute`` (on a claimed
        free core), the node process's end, the post-node timeout and
        the controller's end.  No shim, so one fewer than SEUSS."""
        env = Environment()
        cluster = FaasCluster.with_linux_node(env)
        fn = nop_function()
        cluster.invoke_sync(fn)
        before = env.events_processed
        result = cluster.invoke_sync(fn)
        assert result.path is InvocationPath.HOT
        assert env.events_processed - before == 6

    def test_linux_cold_invocation_event_budget(self):
        """The first ``invoke`` on a fresh Linux cluster costs one event
        more than a hot one: the container's creation and code import
        take two stages where the hot container took one."""
        env = Environment()
        cluster = FaasCluster.with_linux_node(env)
        before = env.events_processed
        result = cluster.invoke_sync(nop_function())
        assert result.path is InvocationPath.COLD
        assert env.events_processed - before == 7

    def test_hot_invocation_call_budget(self):
        """Python-level calls (functions and builtins, as cProfile counts
        them) per hot invocation in a closed loop of the ``hot_loop``
        shape.  A guard, flag or fixed lookup the request path only
        reads is a read, not a call, so one that turns back into a call
        shows here.  A bound, not a pin: the count differs by up to 2
        between interpreters (189.7 on 3.11.7)."""
        assert call_census(1_000)["total"] <= 195

    def test_linux_hot_invocation_call_budget(self):
        """The same closed loop on a Linux cluster, whose hot path the
        idle pool serves too (148.7 on 3.9.18 and 3.11.7, 148.6 on
        3.12.1; 148.3 before the pool).  The pool's hot operations take
        the ledger's tracer: two lookups of their own would read 150.6."""
        assert call_census(1_000, backend="linux")["total"] <= 150

    def test_cold_deploy_call_budget(self, deploy_calls):
        """Calls per cold NOP invocation on one node (302.1 on 3.11.7)."""
        assert deploy_calls["cold"]["total"] <= 310

    def test_warm_deploy_call_budget(self, deploy_calls):
        """Calls per warm NOP invocation on one node (219.0 on 3.11.7)."""
        assert deploy_calls["warm"]["total"] <= 225

    def test_finished_invocations_are_freed_before_their_watchdogs(self):
        """Each node attempt races its node process against a
        ``request_timeout_ms`` watchdog with ``env.race``, which arms
        the watchdog with the controller process's own resume callback.
        When the node wins, the watchdog is detached and withdrawn, so
        it holds neither process: after a collection no controller or
        node process of a finished invocation is left, nothing is
        queued, and a drain processes nothing and leaves the clock
        where the last request finished."""
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env)
        fn = nop_function()
        for _ in range(52):  # two warm-ups, then 50 hot invocations
            result = cluster.invoke_sync(fn)
        assert result.path is InvocationPath.HOT
        gc.collect()
        live = [
            obj._generator.__name__
            for obj in gc.get_objects()
            if isinstance(obj, Process) and obj.env is env
        ]
        assert live == []
        assert env.peek() == float("inf")
        before = env.events_processed
        env.run()
        assert env.events_processed == before
        assert env.now == result.finished_at_ms

    def test_closed_loop_queue_holds_only_live_entries(self):
        """A long closed loop leaves no spent watchdog queued: pending
        entries stay near the live ones (at most as many withdrawn
        ones again).  The 2 s timeout lets a watchdog that stayed
        queued fire inside the loop, so kept watchdogs would level off
        at about 260 entries rather than grow without bound."""
        costs = CostBook(platform=PlatformCostModel(request_timeout_ms=2_000.0))
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env, costs=costs)
        fns = unique_nop_set(64)
        for fn in fns:
            env.run(until=cluster.invoke(fn))
        metrics = TrialMetrics()
        generator = LoadGenerator(
            fns, TrialConfig(invocation_count=1_500, workers=32)
        )
        started = env.now
        done = env.process(generator.run_process(cluster, metrics))
        peak = 0
        while not done.processed:
            try:
                env.run(until=done, limit=200)
            except SimulationError:
                pass
            peak = max(peak, len(env._pending))
        results = metrics.recorder.results
        assert len(results) == 1_500 and all(r.success for r in results)
        assert env.now - started > 5 * costs.platform.request_timeout_ms
        assert peak <= 64

    def test_linux_cluster_end_to_end(self):
        env = Environment()
        cluster = FaasCluster.with_linux_node(env)
        result = cluster.invoke_sync(nop_function())
        assert result.success
        assert result.latency_ms == pytest.approx(204 + 551.5, abs=2.0)

    def test_linux_hot_beats_seuss_hot(self):
        """The shim hop makes Linux faster on the hot path (§7)."""
        fn = nop_function()
        linux_env, seuss_env = Environment(), Environment()
        linux = FaasCluster.with_linux_node(linux_env)
        seuss = FaasCluster.with_seuss_node(seuss_env)
        linux.invoke_sync(fn)
        seuss.invoke_sync(fn)
        linux_hot = linux.invoke_sync(fn)
        seuss_hot = seuss.invoke_sync(fn)
        assert linux_hot.latency_ms < seuss_hot.latency_ms
        assert seuss_hot.latency_ms - linux_hot.latency_ms == pytest.approx(
            8 + 0.8 - 2.0, abs=0.5
        )

    def test_registry_based_invocation(self):
        env = Environment()
        fn = nop_function()
        cluster = FaasCluster.with_seuss_node(env, functions=[fn])
        result = env.run(until=cluster.invoke_by_key(fn.key))
        assert result.success

    def test_controller_stats(self):
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env)
        cluster.invoke_sync(nop_function())
        assert cluster.controller.stats.received == 1
        assert cluster.controller.stats.succeeded == 1

    def test_timeout_produces_error_result(self):
        """A request exceeding the platform timeout errors client-side."""
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env)
        slow = FunctionSpec(name="slow", exec_ms=1.0, io_wait_ms=120_000.0)
        result = cluster.invoke_sync(slow)
        assert not result.success
        assert result.error == "request timed out"
        assert result.latency_ms == pytest.approx(60_000, rel=0.02)
        assert cluster.controller.stats.timed_out == 1
