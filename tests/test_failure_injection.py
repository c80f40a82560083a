"""Failure injection and pathological-configuration tests.

These probe the edges DESIGN.md's components must survive: zero-sized
caches, nodes too small to operate, saturated capacity with waiters,
and bursts of contention on serialized resources.
"""

from __future__ import annotations

import pytest

from repro.errors import OutOfMemoryError
from repro.faas.records import InvocationPath
from repro.linuxnode.config import LinuxNodeConfig
from repro.linuxnode.node import LinuxNode
from repro.seuss.config import SeussConfig
from repro.seuss.node import SeussNode
from repro.sim import Environment
from repro.workload.functions import io_bound_function, nop_function
from tests.conftest import make_seuss_node


class TestTinySnapshotCache:
    def test_zero_budget_holds_one_entry_max(self):
        """The budget is soft for a single entry: a zero-budget cache
        still keeps the most recent snapshot (and evicts it on the next
        insert), so the system degrades to mostly-cold, never breaks."""
        node = make_seuss_node(snapshot_cache_budget_mb=0.0,
                               cache_idle_ucs=False)
        first_fn = nop_function(owner="zb-a")
        other_fn = nop_function(owner="zb-b")
        assert node.invoke_sync(first_fn).path is InvocationPath.COLD
        assert node.invoke_sync(other_fn).path is InvocationPath.COLD
        # other_fn's insert evicted first_fn's snapshot.
        assert len(node.snapshot_cache) == 1
        again = node.invoke_sync(first_fn)
        assert again.path is InvocationPath.COLD
        assert again.success

    def test_sub_entry_budget_holds_at_most_one(self):
        node = make_seuss_node(snapshot_cache_budget_mb=1.0)
        for index in range(5):
            node.invoke_sync(nop_function(owner=f"tiny-{index}"))
            node.uc_cache.clear()
        # A single entry may transiently exceed a too-small budget, but
        # the cache never accumulates.
        assert len(node.snapshot_cache) <= 1


class TestNodeTooSmall:
    def test_initialize_fails_cleanly_below_image_size(self):
        env = Environment()
        # 128 MB total cannot hold the 114.5 MB image + system reserve.
        node = SeussNode(
            env, SeussConfig(memory_gb=0.125, system_reserved_mb=32.0)
        )
        with pytest.raises(OutOfMemoryError):
            node.initialize_sync()

    def test_node_barely_fitting_image_serves_requests(self):
        node = make_seuss_node(
            memory_gb=0.25,
            system_reserved_mb=16.0,
            snapshot_cache_budget_mb=32.0,
            oom_threshold_mb=4.0,
        )
        for index in range(30):
            result = node.invoke_sync(nop_function(owner=f"small-{index}"))
            assert result.success, result.error


class TestCapacityWaiters:
    def test_no_deadlock_with_single_container_slot(self):
        env = Environment()
        node = LinuxNode(env, config=LinuxNodeConfig(container_cache_limit=1))
        fns = [io_bound_function(f"w{i}") for i in range(4)]
        procs = [node.invoke(fn) for fn in fns]
        env.run(until=env.all_of(procs))
        assert all(p.value.success for p in procs)
        assert node.total_containers == 1

    def test_waiters_drain_fifo_ish(self):
        env = Environment()
        node = LinuxNode(env, config=LinuxNodeConfig(container_cache_limit=2))
        procs = [
            node.invoke(nop_function(owner=f"fifo-{i}")) for i in range(8)
        ]
        env.run(until=env.all_of(procs))
        assert all(p.value.success for p in procs)


class TestShimUnderStorm:
    def test_thousand_queued_requests_complete_in_order_time(self):
        from repro.costs import PlatformCostModel
        from repro.seuss.shim import ShimProcess

        env = Environment()
        shim = ShimProcess(env, PlatformCostModel())
        finishes = []

        def client():
            yield from shim.forward()
            finishes.append(env.now)

        for _ in range(1000):
            env.process(client())
        env.run()
        assert len(finishes) == 1000
        assert finishes == sorted(finishes)
        # Aggregate rate pinned to the serialization cap.
        rate = 1000 / (finishes[-1] / 1000.0)
        assert rate == pytest.approx(128.6, rel=0.01)


class TestBridgePastTheLimit:
    def test_majority_failures_beyond_endpoint_limit(self):
        """The paper's 3000-container observation: most requests fail."""
        env = Environment()
        node = LinuxNode(
            env, config=LinuxNodeConfig(container_cache_limit=3000, seed=3)
        )
        # Pre-attach endpoints to push the bridge far past its limit.
        for _ in range(3000):
            node.bridge.attach()
        failures = sum(
            node.bridge.roll_connection_failure(16) for _ in range(400)
        )
        assert failures > 200  # the majority

    def test_platform_survives_bridge_chaos(self):
        """Errors are per-request; the node keeps serving."""
        env = Environment()
        node = LinuxNode(
            env, config=LinuxNodeConfig(container_cache_limit=64, seed=9)
        )
        for _ in range(900):
            node.bridge.attach()  # over the 1024 limit with churn
        procs = [node.invoke(nop_function(owner=f"c{i}")) for i in range(48)]
        env.run(until=env.all_of(procs))
        outcomes = [p.value for p in procs]
        assert any(not r.success for r in outcomes)  # chaos bites...
        assert any(r.success for r in outcomes)  # ...but not fatally
        assert node.stats.errors == sum(1 for r in outcomes if not r.success)


class TestDistributedDegradation:
    def test_cluster_survives_source_eviction_mid_lookup(self):
        """A replica source evicted before the lookup leaves nothing
        stale behind: the request falls back to a plain cold start
        rather than erroring."""
        from repro.distributed.transfer import TransferStrategy
        from repro.experiments.extensions import replicated_cluster

        cluster = replicated_cluster(TransferStrategy.COLORED)
        home = cluster.nodes[0]
        fn = nop_function(owner="dd")
        cluster.invoke_sync(fn)
        home.uc_cache.drop_function(fn.key)
        home.snapshot_cache.evict_key(fn.key)
        result = cluster.invoke_sync(fn)  # round robin: the peer
        assert result.success
        assert result.path is InvocationPath.COLD  # graceful fallback
        assert result.transferred_mb == 0.0
