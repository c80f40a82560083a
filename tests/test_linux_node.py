"""LinuxNode tests: container lifecycle, caches, bridge, stemcells."""

from __future__ import annotations

import pytest

from repro.errors import OutOfMemoryError
from repro.faas.records import InvocationPath
from repro.linuxnode.config import LinuxNodeConfig
from repro.linuxnode.instances import Instance, InstanceKind, InstanceState
from repro.linuxnode.node import LinuxNode
from repro.sim import Environment
from repro.trace import Tracer
from repro.workload.functions import io_bound_function, nop_function


@pytest.fixture
def linux_node(env):
    return LinuxNode(env)


def invoke(node, fn):
    return node.env.run(until=node.invoke(fn))


class TestPaths:
    def test_first_invocation_is_cold(self, linux_node):
        result = invoke(linux_node, nop_function())
        assert result.path is InvocationPath.COLD
        # 541 ms creation + 10 ms import + 0.5 ms exec (empty node).
        assert result.latency_ms == pytest.approx(551.5, abs=2.0)

    def test_second_invocation_is_hot(self, linux_node):
        fn = nop_function()
        invoke(linux_node, fn)
        result = invoke(linux_node, fn)
        assert result.path is InvocationPath.HOT
        assert result.latency_ms == pytest.approx(2.0, abs=0.1)

    def test_stemcell_serves_new_function_warm(self, env):
        node = LinuxNode(env, config=LinuxNodeConfig(stemcell_pool_size=8))
        node.start_stemcell_pool()
        result = invoke(node, nop_function())
        assert result.path is InvocationPath.WARM
        assert result.latency_ms == pytest.approx(10.5, abs=1.0)

    def test_container_is_occupied_during_invocation(self, env):
        """Concurrent requests to one function need separate containers."""
        node = LinuxNode(env)
        fn = io_bound_function("io")  # long enough to overlap
        first = node.invoke(fn)
        second = node.invoke(fn)
        env.run(until=env.all_of([first, second]))
        assert first.value.path is InvocationPath.COLD
        assert second.value.path is InvocationPath.COLD
        assert node.total_containers == 2

    def test_path_counters(self, linux_node):
        fn = nop_function()
        invoke(linux_node, fn)
        invoke(linux_node, fn)
        assert linux_node.stats.cold == 1
        assert linux_node.stats.hot == 1


class TestCreationLatencyGrowth:
    def test_creation_slows_as_node_fills(self, linux_node):
        early = invoke(linux_node, nop_function(owner="a"))
        for index in range(200):
            invoke(linux_node, nop_function(owner=f"fill-{index}"))
        late = invoke(linux_node, nop_function(owner="z"))
        assert late.breakdown["container_create"] > (
            early.breakdown["container_create"] + 50
        )


class TestCacheLimitAndEviction:
    def test_eviction_at_cache_limit(self, env):
        node = LinuxNode(env, config=LinuxNodeConfig(container_cache_limit=4))
        for index in range(4):
            invoke(node, nop_function(owner=f"c{index}"))
        assert node.total_containers == 4
        result = invoke(node, nop_function(owner="overflow"))
        assert result.success
        assert "evict" in result.breakdown
        assert node.total_containers == 4

    def test_cold_waits_for_capacity_when_all_busy(self, env):
        node = LinuxNode(env, config=LinuxNodeConfig(container_cache_limit=1))
        io_fn = io_bound_function("blocker")
        blocker = node.invoke(io_fn)
        cold = node.invoke(nop_function(owner="waiter"))
        env.run(until=env.all_of([blocker, cold]))
        assert cold.value.success
        # The cold start had to wait for the blocker to finish and then
        # evict its container.
        assert cold.value.latency_ms > io_fn.io_wait_ms

    def test_cold_starts_at_one_instant_stay_within_the_limit(self, env):
        """Two cold starts at one instant on a full node: the first
        evicts and holds the slot it freed through the teardown, so the
        second evicts the other idle container instead of creating into
        that slot.  No step of the run holds more containers than the
        limit."""
        node = LinuxNode(env, config=LinuxNodeConfig(container_cache_limit=2))
        for owner in ("a", "b"):
            invoke(node, nop_function(owner=owner))
        starts = [node.invoke(nop_function(owner=owner)) for owner in ("c", "d")]
        while not all(start.processed for start in starts):
            env.step()
            assert node.total_containers <= node.config.container_cache_limit
        for start in starts:
            assert start.value.success
            assert start.value.path is InvocationPath.COLD
            assert "evict" in start.value.breakdown
        assert node.total_containers == 2

    def test_a_start_cancelled_in_its_teardown_hands_the_slot_back(self, env):
        """A cold start interrupted while it tears its victim down gives
        the slot it held back and wakes the start waiting for one."""
        node = LinuxNode(env, config=LinuxNodeConfig(container_cache_limit=1))
        invoke(node, nop_function(owner="a"))
        evicting = node.invoke(nop_function(owner="b"))
        waiting = node.invoke(nop_function(owner="c"))
        env.run(until=env.now + 1.0)  # inside the 300 ms teardown
        assert node.total_containers == 1 and len(node.idle_pool) == 0
        evicting.interrupt("cancelled")
        env.run(until=waiting)
        assert not evicting.value.success
        assert waiting.value.success
        assert "evict" not in waiting.value.breakdown  # the slot was free
        assert node.total_containers == 1
        assert node._creating_count == 0

    def test_traced_idle_pool_records_under_the_container_prefix(self, env):
        """The idle pool records what a SEUSS node's UC pool does, under
        its own prefix: a park, a hot hit, and an eviction as a
        reclaim, each with the idle-container gauge."""
        tracer = Tracer().attach(env)
        try:
            node = LinuxNode(env, config=LinuxNodeConfig(container_cache_limit=1))
            invoke(node, nop_function(owner="a"))
            invoke(node, nop_function(owner="a"))
            invoke(node, nop_function(owner="b"))  # evicts a's container
        finally:
            tracer.detach(env)
        events = [(record.name, record.attrs["key"]) for record in tracer.events]
        assert events == [
            ("container_cache.cached", "a/nop"),
            ("container_cache.hot_hit", "a/nop"),
            ("container_cache.cached", "a/nop"),
            ("container_cache.reclaimed", "a/nop"),
            ("container_cache.cached", "b/nop"),
        ]
        gauge = [
            sample.value
            for sample in tracer.counters
            if sample.name == "container_cache.idle_containers"
        ]
        assert gauge == [1.0, 0.0, 1.0, 0.0, 1.0]


class TestBridgeFailures:
    def test_each_container_attaches_a_bridge_endpoint(self, env):
        node = LinuxNode(env, config=LinuxNodeConfig(seed=7))
        procs = [
            node.invoke(nop_function(owner=f"c{index}")) for index in range(64)
        ]
        env.run(until=env.all_of(procs))
        succeeded = sum(1 for p in procs if p.value.success)
        assert node.bridge.endpoints == succeeded

    def test_failure_probability_shape(self, linux_node):
        bridge = linux_node.bridge
        assert bridge.connection_failure_prob(1) == 0.0  # empty bridge
        for _ in range(1024):
            bridge.attach()
        at_limit = bridge.connection_failure_prob(16)
        assert 0 < at_limit <= 0.2
        for _ in range(2000):
            bridge.attach()
        past_limit = bridge.connection_failure_prob(16)
        assert past_limit > 0.5  # the majority-failure regime

    def test_failed_connection_counts_its_error_before_the_stall(self, env):
        """The error counts when the connection fails; the node answers
        only after stalling past the platform's request timeout."""
        node = LinuxNode(env)
        node.bridge.roll_connection_failure = lambda concurrent: True
        process = node.invoke(nop_function())
        env.run(until=1000.0)  # the ~541 ms creation has failed by now
        assert process.is_alive and node.stats.errors == 1
        result = env.run(until=process)
        assert result.path is InvocationPath.ERROR and not result.success
        stall = node.costs.platform.request_timeout_ms * 1.1
        assert result.latency_ms == pytest.approx(
            result.breakdown["container_create"] + stall
        )
        assert node.stats.errors == 1


class TestRawInstances:
    def test_process_deployment(self, linux_node):
        env = linux_node.env
        instance = env.run(
            until=env.process(linux_node.deploy_instance(InstanceKind.PROCESS))
        )
        assert instance.kind is InstanceKind.PROCESS
        assert env.now == pytest.approx(355.0)

    def test_microvm_deployment_takes_seconds(self, linux_node):
        env = linux_node.env
        env.run(until=env.process(linux_node.deploy_instance(InstanceKind.MICROVM)))
        assert env.now > 3000

    def test_density_bounded_by_memory(self, env):
        node = LinuxNode(env, config=LinuxNodeConfig(memory_gb=1.0,
                                                     system_reserved_mb=64.0))
        deployed = 0
        while True:
            try:
                env.run(until=env.process(node.deploy_instance(InstanceKind.MICROVM)))
            except OutOfMemoryError:
                break
            deployed += 1
        # (1024 - 64) / 195.7 ~= 4 microVMs.
        assert deployed == 4

    def test_destroy_raw_instance_releases_resources(self, linux_node):
        env = linux_node.env
        instance = env.run(
            until=env.process(linux_node.deploy_instance(InstanceKind.CONTAINER))
        )
        endpoints = linux_node.bridge.endpoints
        env.run(until=env.process(linux_node.destroy_raw_instance(instance)))
        assert linux_node.bridge.endpoints == endpoints - 1
        assert instance.state is InstanceState.DESTROYED
        assert not linux_node.raw_instances[InstanceKind.CONTAINER]


class TestInstances:
    def test_bind_once(self):
        instance = Instance(
            kind=InstanceKind.CONTAINER, footprint_pages=100, created_at_ms=0.0
        )
        assert instance.is_stemcell
        instance.bind("fn")
        assert not instance.is_stemcell
        with pytest.raises(ValueError):
            instance.bind("other")

    def test_kind_properties(self):
        from repro.costs import LinuxCostModel

        costs = LinuxCostModel()
        assert InstanceKind.PROCESS.footprint_mb(costs) < InstanceKind.CONTAINER.footprint_mb(costs)
        assert InstanceKind.MICROVM.footprint_mb(costs) > 100
        assert not InstanceKind.PROCESS.uses_bridge
        assert InstanceKind.CONTAINER.uses_bridge
