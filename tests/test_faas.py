"""Platform-layer tests: records, registry, bus, server, controller, cluster."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.faas import (
    ExternalHttpServer,
    FaasCluster,
    FunctionRegistry,
    FunctionSpec,
    InvocationPath,
    MessageBus,
)
from repro.seuss.config import SeussConfig
from repro.sim import Environment
from repro.workload.functions import io_bound_function, nop_function


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
        here (the bus publish nothing waits on schedules none)."""
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env)
        fn = nop_function()
        cluster.invoke_sync(fn)
        cluster.invoke_sync(fn)
        before = env.events_processed
        result = cluster.invoke_sync(fn)
        assert result.path is InvocationPath.HOT
        assert env.events_processed - before == 15

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
