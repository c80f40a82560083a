"""Platform resilience tests: circuit breakers, retry recovery, node
crash/restart, snapshot integrity + quarantine, bus redelivery, and the
zero-overhead guarantee.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    CircuitOpenError,
    ConfigError,
    SnapshotCorruptionError,
)
from repro.faas.cluster import FaasCluster
from repro.faas.controller import RetryPolicy
from repro.faas.health import (
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    NodeHealth,
    NodeRouter,
)
from repro.faas.messagebus import MessageBus
from repro.faas.records import InvocationPath
from repro.faults import FaultInjector, FaultPlan
from repro.seuss.config import SeussConfig
from repro.seuss.node import SeussNode
from repro.sim import Environment
from repro.workload.functions import nop_function, unique_nop_set
from repro.workload.generator import run_trial


def _advance(env, ms):
    """Advance the sim clock by ``ms`` without other side effects."""
    env.run(until=env.timeout(ms))


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        env = Environment()
        policy = BreakerPolicy(**{"failure_threshold": 3, "cooldown_ms": 100.0, **kwargs})
        return env, CircuitBreaker(env, policy)

    def test_starts_closed_and_admits(self):
        _, breaker = self._breaker()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_opens_after_consecutive_failures(self):
        _, breaker = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert breaker.stats.opens == 1
        assert breaker.stats.rejected == 1

    def test_success_resets_failure_streak(self):
        _, breaker = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_after_cooldown_then_closes_on_success(self):
        env, breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        _advance(env, 100.0)
        assert breaker.state is BreakerState.HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # only one probe slot
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.stats.closes == 1

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        env, breaker = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        _advance(env, 100.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert breaker.stats.opens == 2
        _advance(env, 99.0)
        assert breaker.state is BreakerState.OPEN  # cooldown restarted
        _advance(env, 1.0)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_transition_log_on_sim_clock(self):
        env, breaker = self._breaker()
        _advance(env, 10.0)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.stats.transitions == [(10.0, BreakerState.OPEN)]

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigError):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ConfigError):
            BreakerPolicy(cooldown_ms=-1.0)
        with pytest.raises(ConfigError):
            BreakerPolicy(half_open_probes=0)


class TestNodeRouter:
    def _router(self, count=2):
        env = Environment()
        healths = [
            NodeHealth(node=f"node-{i}", breaker=CircuitBreaker(env))
            for i in range(count)
        ]
        return env, healths, NodeRouter(healths)

    def test_round_robin_over_healthy_nodes(self):
        _, healths, router = self._router(3)
        picked = [router.select().node for _ in range(6)]
        assert picked == [
            "node-0", "node-1", "node-2", "node-0", "node-1", "node-2",
        ]

    def test_routes_around_open_breaker(self):
        _, healths, router = self._router(2)
        for _ in range(3):
            healths[0].record_failure()
        picked = {router.select().node for _ in range(4)}
        assert picked == {"node-1"}

    def test_drain_and_recover(self):
        _, healths, router = self._router(2)
        healths[0].drain()
        assert {router.select().node for _ in range(4)} == {"node-1"}
        healths[0].recover()
        assert {router.select().node for _ in range(4)} == {"node-0", "node-1"}

    def test_all_unavailable_raises_circuit_open(self):
        _, healths, router = self._router(2)
        healths[0].drain()
        for _ in range(3):
            healths[1].record_failure()
        with pytest.raises(CircuitOpenError):
            router.select()

    def test_empty_router_rejected(self):
        with pytest.raises(ConfigError):
            NodeRouter().select()


class TestSnapshotIntegrity:
    def test_corrupt_snapshot_fails_verification(self, seuss_node):
        fn = nop_function()
        seuss_node.invoke_sync(fn)
        snapshot = seuss_node.snapshot_cache.get(fn.key)
        assert snapshot is not None
        snapshot.verify()  # intact: no raise
        snapshot.corrupt()
        assert not snapshot.intact
        with pytest.raises(SnapshotCorruptionError):
            snapshot.verify()

    def test_deep_verify_walks_parent_stack(self, seuss_node):
        fn = nop_function()
        seuss_node.invoke_sync(fn)
        snapshot = seuss_node.snapshot_cache.get(fn.key)
        assert snapshot.parent is not None
        snapshot.parent.corrupt()
        snapshot.verify(deep=False)  # own pages fine
        with pytest.raises(SnapshotCorruptionError):
            snapshot.verify(deep=True)

    def test_quarantine_evicts_and_counts(self, seuss_node):
        fn = nop_function()
        seuss_node.invoke_sync(fn)
        cache = seuss_node.snapshot_cache
        assert fn.key in cache
        assert cache.quarantine(fn.key)
        assert fn.key not in cache
        assert cache.stats.quarantined == 1
        assert not cache.quarantine(fn.key)  # already gone


class TestCrashRecovery:
    def _cluster(self, env, nodes=2, **kwargs):
        config = SeussConfig(cache_idle_ucs=False)
        cluster = FaasCluster.with_seuss_node(
            env,
            config=config,
            retries=kwargs.pop("retries", RetryPolicy(max_attempts=8)),
            breaker=kwargs.pop("breaker", BreakerPolicy(cooldown_ms=100.0)),
            **kwargs,
        )
        for _ in range(nodes - 1):
            node = SeussNode(env, config=config, costs=cluster.costs)
            node.initialize_sync()
            cluster.add_node(node)
        return cluster

    def test_crashed_node_fails_invocations(self):
        env = Environment()
        cluster = self._cluster(env, nodes=1, retries=RetryPolicy())
        node = cluster.node
        node.crash()
        assert node.crashed
        result = cluster.invoke_sync(nop_function())
        assert not result.success
        assert "crash" in (result.error or "")
        node.restart()
        assert not node.crashed
        assert cluster.invoke_sync(nop_function(owner="after")).success

    def test_crash_loses_volatile_state(self, seuss_node):
        fn = nop_function()
        seuss_node.invoke_sync(fn)
        assert len(seuss_node.snapshot_cache) > 0
        seuss_node.crash()
        assert len(seuss_node.snapshot_cache) == 0
        assert seuss_node.crash_count == 1

    def test_crash_for_restarts_after_downtime(self):
        env = Environment()
        cluster = self._cluster(env, nodes=1)
        node = cluster.node
        node.crash_for(50.0)
        assert node.crashed
        _advance(env, 49.0)
        assert node.crashed
        _advance(env, 1.0)
        assert not node.crashed
        assert node.restart_count == 1

    def test_retries_ride_out_a_crash_window(self):
        """A crashed-then-restarting node is recovered by backoff alone."""
        env = Environment()
        cluster = self._cluster(env, nodes=1)
        cluster.node.crash_for(300.0)  # outlasts the ~143ms pre-node hop
        result = cluster.invoke_sync(nop_function())
        assert result.success
        assert result.attempts > 1
        assert result.retried
        assert cluster.controller.stats.recovered == 1

    def test_second_node_absorbs_traffic_during_crash(self):
        env = Environment()
        cluster = self._cluster(env, nodes=2)
        cluster.node.crash()  # never restarts
        for index in range(8):
            result = cluster.invoke_sync(nop_function(owner=f"o{index}"))
            assert result.success
        stats = cluster.controller.stats
        assert stats.succeeded == 8
        # The dead node's breaker opened after threshold failures.
        assert cluster.control_plane.healths()[0].breaker.stats.opens >= 1

    def test_retry_exhaustion_counts(self):
        env = Environment()
        cluster = self._cluster(
            env, nodes=1, retries=RetryPolicy(max_attempts=3)
        )
        cluster.node.crash()  # permanent
        result = cluster.invoke_sync(nop_function())
        assert not result.success
        assert result.attempts == 3
        assert cluster.controller.stats.retry_exhausted == 1


class TestCorruptionRecovery:
    def test_quarantine_then_one_cold_rebuild_then_warm(self):
        """A corrupted snapshot costs exactly one quarantine + one cold
        start; the rebuilt snapshot serves warm starts again."""
        env = Environment()
        config = SeussConfig(cache_idle_ucs=False)
        cluster = FaasCluster.with_seuss_node(env, config=config)
        fn = nop_function()

        first = cluster.invoke_sync(fn)
        assert first.path is InvocationPath.COLD
        cluster.node.snapshot_cache.get(fn.key).corrupt()

        rebuild = cluster.invoke_sync(fn)
        assert rebuild.path is InvocationPath.COLD  # the one rebuild
        assert cluster.node.snapshot_cache.stats.quarantined == 1

        warm = cluster.invoke_sync(fn)
        assert warm.path is InvocationPath.WARM
        assert cluster.node.snapshot_cache.stats.quarantined == 1

    def test_injected_restore_corruption_quarantines(self):
        env = Environment()
        config = SeussConfig(cache_idle_ucs=False)
        cluster = FaasCluster.with_seuss_node(
            env,
            config=config,
            faults=FaultPlan(snapshot_corrupt_restore_p=1.0),
        )
        fn = nop_function()
        assert cluster.invoke_sync(fn).path is InvocationPath.COLD
        # Every warm attempt finds its snapshot corrupted -> cold again.
        again = cluster.invoke_sync(fn)
        assert again.success
        assert again.path is InvocationPath.COLD
        assert cluster.node.snapshot_cache.stats.quarantined == 1
        assert cluster.fault_injector.stats.restore_corruptions == 1


class TestBusDisruption:
    def test_dropped_message_redelivers(self):
        env = Environment()
        injector = FaultInjector(
            FaultPlan(bus_drop_p=1.0, bus_redeliver_ms=40.0), env
        )
        bus = MessageBus(env, injector=injector)
        bus.publish_nowait("invoke", "payload")
        received = env.run(until=bus.consume("invoke"))
        assert received == "payload"
        assert env.now == pytest.approx(40.0)
        assert bus.stats["invoke"].dropped == 1

    def test_delayed_message_arrives_late(self):
        env = Environment()
        injector = FaultInjector(
            FaultPlan(bus_delay_p=1.0, bus_delay_ms=7.5), env
        )
        bus = MessageBus(env, injector=injector)
        bus.publish_nowait("invoke", "payload")
        assert env.run(until=bus.consume("invoke")) == "payload"
        assert env.now == pytest.approx(7.5)
        assert bus.stats["invoke"].delayed == 1

    def test_trial_completes_under_total_drop_rate(self):
        """Even p=1.0 drops cannot deadlock: every message redelivers."""
        env = Environment()
        cluster = FaasCluster.with_seuss_node(
            env,
            config=SeussConfig(cache_idle_ucs=False),
            faults=FaultPlan(bus_drop_p=1.0, bus_redeliver_ms=10.0),
        )
        functions = unique_nop_set(4)
        trial = run_trial(cluster, functions, invocation_count=40, workers=4)
        assert trial.error_rate == 0.0


class TestZeroOverhead:
    """Resilience wiring with zero probabilities must change nothing."""

    def _trial(self, resilient):
        env = Environment()
        functions = unique_nop_set(16)
        config = SeussConfig(cache_idle_ucs=False)
        if resilient:
            cluster = FaasCluster.with_seuss_node(
                env,
                config=config,
                faults=FaultPlan(),
                retries=RetryPolicy(max_attempts=8),
                breaker=BreakerPolicy(),
            )
        else:
            cluster = FaasCluster.with_seuss_node(env, config=config)
        trial = run_trial(cluster, functions, invocation_count=200, workers=4)
        signature = [
            (r.latency_ms, r.path, r.success) for r in trial.results
        ]
        return signature, env.events_processed, cluster

    def test_zero_fault_run_is_byte_identical(self):
        baseline, baseline_events, _ = self._trial(resilient=False)
        wired, wired_events, cluster = self._trial(resilient=True)
        assert baseline == wired
        assert baseline_events == wired_events
        # And the machinery really was armed, just never triggered.
        assert cluster.controller.router.policy.name == "round_robin"
        assert cluster.controller.retries.enabled
        assert cluster.controller.stats.retried == 0
        assert cluster.fault_injector.stats.total == 0
