"""Distributed SEUSS tests: transfers and the remote-warm path."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.costs import DEFAULT_COSTS
from repro.distributed.transfer import (
    REMOTE_MISS_PENALTY_MS,
    ClusterInterconnect,
    TransferStrategy,
    transfer_plan,
)
from repro.errors import ConfigError
from repro.experiments.extensions import replicated_cluster
from repro.faas.controller import RESILIENT_RETRIES
from repro.faas.overload import OverloadConfig
from repro.faas.records import InvocationPath
from repro.faults import FaultPlan
from repro.mem.intervals import IntervalSet
from repro.mem.workingset import WorkingSetManifest
from repro.seuss.audit import audit_node
from repro.seuss.config import SeussConfig
from repro.sim import Environment, Interrupted
from repro.trace import Tracer
from repro.trace.analysis import coverage_residual
from repro.workload.functions import (
    cpu_bound_function,
    io_bound_function,
    nop_function,
)
from repro.units import mb_to_pages


class TestTransferPlans:
    def test_full_copy_blocks_for_whole_diff(self):
        plan = transfer_plan(2.0, TransferStrategy.FULL_COPY)
        assert plan.upfront_ms == pytest.approx(0.15 + 2.0 * 0.84)
        assert plan.background_ms == 0.0
        assert plan.residual_penalty_ms == 0.0

    def test_on_demand_ships_working_set_first(self):
        plan = transfer_plan(2.0, TransferStrategy.ON_DEMAND)
        assert plan.upfront_ms < transfer_plan(2.0, TransferStrategy.FULL_COPY).upfront_ms
        assert plan.background_ms > 0
        assert plan.residual_penalty_ms > 0

    def test_coloring_beats_on_demand_upfront(self):
        colored = transfer_plan(2.0, TransferStrategy.COLORED)
        on_demand = transfer_plan(2.0, TransferStrategy.ON_DEMAND)
        assert colored.upfront_ms < on_demand.upfront_ms
        assert colored.residual_penalty_ms < on_demand.residual_penalty_ms

    def test_total_wire_time_is_strategy_independent(self):
        totals = {
            strategy: transfer_plan(2.0, strategy).total_wire_ms
            for strategy in TransferStrategy
        }
        assert len({round(t, 6) for t in totals.values()}) == 1

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigError):
            transfer_plan(-1.0, TransferStrategy.FULL_COPY)

    def test_upfront_background_split_covers_the_wire(self):
        # For every strategy: upfront = latency + fraction of the wire
        # time, background = the rest; the split never loses bytes.
        for strategy in TransferStrategy:
            plan = transfer_plan(2.0, strategy, ms_per_mb=0.84, latency_ms=0.15)
            wire_ms = 2.0 * 0.84
            assert plan.upfront_ms == pytest.approx(
                0.15 + wire_ms * strategy.upfront_fraction
            )
            assert plan.background_ms == pytest.approx(
                wire_ms * (1.0 - strategy.upfront_fraction)
            )
            assert plan.total_wire_ms == pytest.approx(0.15 + wire_ms)

    def test_zero_size_diff_owes_no_residual(self):
        # Nothing shipped lazily means nothing left to fault remotely.
        for strategy in TransferStrategy:
            plan = transfer_plan(0.0, strategy)
            assert plan.residual_penalty_ms == 0.0
            assert plan.background_ms == 0.0
            assert plan.upfront_ms == pytest.approx(0.15)  # latency only


def _manifest(pages_mb: float, hits: int = 0, misses: int = 0) -> WorkingSetManifest:
    manifest = WorkingSetManifest(
        key="fn", pages=IntervalSet([(0, mb_to_pages(pages_mb))])
    )
    if hits or misses:
        manifest.observe_replay(hits, misses)
    return manifest


class TestRecordedStrategy:
    def test_falls_back_to_on_demand_without_manifest(self):
        recorded = transfer_plan(2.0, TransferStrategy.RECORDED)
        on_demand = transfer_plan(2.0, TransferStrategy.ON_DEMAND)
        assert recorded.upfront_ms == on_demand.upfront_ms
        assert recorded.background_ms == on_demand.background_ms
        assert recorded.residual_penalty_ms == on_demand.residual_penalty_ms

    def test_upfront_is_the_measured_manifest(self):
        manifest = _manifest(1.5)
        plan = transfer_plan(2.0, TransferStrategy.RECORDED, manifest=manifest)
        # 1.5 of the 2.0 MB diff ships upfront — a measured 75%, not
        # ON_DEMAND's constant 25%.
        assert plan.upfront_ms == pytest.approx(0.15 + 1.5 * 0.84)
        assert plan.background_ms == pytest.approx(0.5 * 0.84)

    def test_manifest_larger_than_diff_is_capped(self):
        manifest = _manifest(4.0)
        plan = transfer_plan(2.0, TransferStrategy.RECORDED, manifest=manifest)
        full = transfer_plan(2.0, TransferStrategy.FULL_COPY)
        assert plan.upfront_ms == pytest.approx(full.upfront_ms)
        assert plan.background_ms == 0.0

    def test_residual_scales_with_observed_miss_rate(self):
        perfect = _manifest(1.5, hits=100, misses=0)
        plan = transfer_plan(2.0, TransferStrategy.RECORDED, manifest=perfect)
        assert plan.residual_penalty_ms == 0.0

        flaky = _manifest(1.5, hits=75, misses=25)
        plan = transfer_plan(2.0, TransferStrategy.RECORDED, manifest=flaky)
        assert plan.residual_penalty_ms == pytest.approx(
            REMOTE_MISS_PENALTY_MS * 0.25
        )

    def test_fresh_manifest_reports_zero_miss_rate(self):
        manifest = _manifest(1.5)
        assert manifest.miss_rate == 0.0
        plan = transfer_plan(2.0, TransferStrategy.RECORDED, manifest=manifest)
        assert plan.residual_penalty_ms == 0.0

    def test_manifest_ignored_by_constant_strategies(self):
        manifest = _manifest(1.5, hits=50, misses=50)
        for strategy in (
            TransferStrategy.FULL_COPY,
            TransferStrategy.ON_DEMAND,
            TransferStrategy.COLORED,
        ):
            with_manifest = transfer_plan(2.0, strategy, manifest=manifest)
            without = transfer_plan(2.0, strategy)
            assert with_manifest == without


class TestInterconnect:
    def test_transfer_returns_after_upfront(self, env):
        fabric = ClusterInterconnect(env, nodes=2)

        def mover():
            plan = yield from fabric.transfer(0, 1, 2.0, TransferStrategy.COLORED)
            return (env.now, plan)

        finished_at, plan = env.run(until=env.process(mover()))
        assert finished_at == pytest.approx(plan.upfront_ms)

    def test_nic_serializes_transfers(self, env):
        fabric = ClusterInterconnect(env, nodes=3)
        finish = []

        def mover(dst):
            yield from fabric.transfer(0, dst, 10.0, TransferStrategy.FULL_COPY)
            finish.append(env.now)

        env.process(mover(1))
        env.process(mover(2))
        env.run()
        # Both transfers leave node 0's NIC; the second waits.
        assert finish[1] >= finish[0] * 2 - 0.5

    def test_same_node_transfer_rejected(self, env):
        fabric = ClusterInterconnect(env, nodes=2)
        with pytest.raises(ConfigError):
            env.run(until=env.process(fabric.transfer(1, 1, 1.0, TransferStrategy.FULL_COPY)))

    def test_stats(self, env):
        fabric = ClusterInterconnect(env, nodes=2)
        env.run(until=env.process(fabric.transfer(0, 1, 2.0, TransferStrategy.FULL_COPY)))
        env.run()
        assert fabric.stats.transfers == 1
        assert fabric.stats.mb_moved == 2.0

    def test_interrupt_while_queued_releases_both_claims(self, env):
        fabric = ClusterInterconnect(env, nodes=3)

        def mover(dst):
            try:
                yield from fabric.transfer(0, dst, 10.0, TransferStrategy.FULL_COPY)
            except Interrupted:
                pass

        env.process(mover(1))
        queued = env.process(mover(2))  # waits for node 0's NIC

        def canceller():
            yield env.timeout(1.0)
            queued.interrupt("deploy cancelled")

        env.process(canceller())
        env.run()
        assert fabric.stats.transfers == 1
        for nic in fabric._nics:
            assert not nic.users and not nic.queue


def _holders(cluster, fn) -> int:
    return sum(fn.key in node.snapshot_cache for node in cluster.nodes)


def _fabric(cluster) -> ClusterInterconnect:
    return cluster.control_plane.replicas.interconnect


class TestCluster:
    @pytest.fixture
    def cluster(self):
        return replicated_cluster(TransferStrategy.COLORED, nodes=3)

    def test_cold_registers_replica(self, cluster):
        fn = nop_function(owner="d0")
        result = cluster.invoke_sync(fn)
        assert result.path is InvocationPath.COLD
        assert result.transferred_mb == 0.0
        assert _holders(cluster, fn) == 1

    def test_remote_warm_beats_cold(self, cluster):
        fn = nop_function(owner="d1")
        cold = cluster.invoke_sync(fn)
        # Drop the home node's idle UC; round robin places the next
        # request on a peer that holds nothing for the function.
        cluster.nodes[0].uc_cache.drop_function(fn.key)
        remote = cluster.invoke_sync(fn)
        assert remote.path is InvocationPath.WARM
        assert remote.transferred_mb > 0
        assert fn.key in cluster.nodes[1].snapshot_cache
        assert remote.node_latency_ms < cold.node_latency_ms
        assert _holders(cluster, fn) == 2

    def test_remote_warm_fetch_counts_no_hit_at_the_source(self, cluster):
        fn = nop_function(owner="shipped")
        cluster.invoke_sync(fn)
        source = cluster.nodes[0]
        source.uc_cache.drop_function(fn.key)
        hits = source.snapshot_cache.stats.hits
        remote = cluster.invoke_sync(fn)
        assert remote.path is InvocationPath.WARM and remote.transferred_mb > 0
        assert source.snapshot_cache.stats.hits == hits

    def test_remote_warm_stages_cover_the_node_latency(self):
        cluster = replicated_cluster(TransferStrategy.ON_DEMAND)
        tracer = Tracer().attach(cluster.env)
        try:
            fn = nop_function(owner="tiled")
            cluster.invoke_sync(fn)
            cluster.nodes[0].uc_cache.drop_function(fn.key)
            remote = cluster.invoke_sync(fn)
        finally:
            tracer.detach(cluster.env)
        assert remote.path is InvocationPath.WARM
        assert remote.transferred_mb > 0
        breakdown = remote.breakdown
        assert sum(breakdown.values()) == pytest.approx(remote.node_latency_ms)
        assert breakdown["replica_fetch"] > 0
        assert breakdown["remote_faults"] == (
            TransferStrategy.ON_DEMAND.residual_fault_penalty_ms
        )
        root = tracer.roots("invocation")[-1]
        assert root.attrs["path"] == "warm"
        assert root.duration_ms == pytest.approx(remote.node_latency_ms)
        assert coverage_residual(tracer, root) == pytest.approx(0.0, abs=1e-9)

    def test_affinity_policy_avoids_transfers(self):
        cluster = replicated_cluster(
            TransferStrategy.COLORED, nodes=3, routing="snapshot_affinity"
        )
        fn = nop_function(owner="d2")
        cluster.invoke_sync(fn)
        for node in cluster.nodes:
            node.uc_cache.drop_function(fn.key)
        # The idle cluster sends the request to the snapshot's holder.
        again = cluster.invoke_sync(fn)
        assert again.path is InvocationPath.WARM
        assert again.transferred_mb == 0.0
        assert _fabric(cluster).stats.transfers == 0
        assert _holders(cluster, fn) == 1

    def test_round_robin_spreads_requests(self):
        cluster = replicated_cluster(TransferStrategy.COLORED, nodes=3)
        for index in range(6):
            cluster.invoke_sync(nop_function(owner=f"rr{index}"))
        assert [node.stats.total for node in cluster.nodes] == [2, 2, 2]

    def test_eviction_drops_replica_from_registry(self):
        cluster = replicated_cluster(
            TransferStrategy.COLORED,
            config=SeussConfig(snapshot_cache_budget_mb=10.0),
        )
        functions = [nop_function(owner=f"ev{i}") for i in range(10)]
        for fn in functions:
            cluster.invoke_sync(fn)
            cluster.nodes[0].uc_cache.clear()
            cluster.nodes[1].uc_cache.clear()
        # Budget fits ~4 snapshots per node: the early snapshots are
        # evicted everywhere, so nothing is left to ship and the next
        # request rebuilds cold.
        assert _holders(cluster, functions[0]) == 0
        again = cluster.invoke_sync(functions[0])
        assert again.path is InvocationPath.COLD
        assert again.transferred_mb == 0.0

    def test_manifest_ships_with_replica(self):
        cluster = replicated_cluster(
            TransferStrategy.RECORDED,
            config=SeussConfig(prefetch_working_sets=True),
        )
        home, peer = cluster.nodes
        fn = nop_function(owner="ship")
        cluster.invoke_sync(fn)
        home.uc_cache.drop_function(fn.key)
        warm = home.invoke_sync(fn)  # records the fn manifest at home
        assert warm.path is InvocationPath.WARM
        home.uc_cache.drop_function(fn.key)
        remote = cluster.invoke_sync(fn)
        assert remote.path is InvocationPath.WARM
        assert remote.transferred_mb > 0
        # The replica's manifest arrived with it — shared, not copied —
        # and the peer's deploy prefetched from it.
        assert peer.working_sets.get(fn.key) is home.working_sets.get(fn.key)
        assert peer.working_sets.stats.prefetches > 0


    def test_transfer_spends_the_request_timeout(self):
        # The node attempt starts 150.8 ms after the send (control
        # plane share plus the shim hop), leaving 0.7 ms: less than the
        # 1.8 ms a FULL_COPY replica takes to land.  The fetch is part
        # of the peer's invocation, so the watchdog fires mid-transfer
        # and the peer finishes the deploy in the background, like any
        # node stage after a timeout.
        costs = replace(
            DEFAULT_COSTS,
            platform=replace(DEFAULT_COSTS.platform, request_timeout_ms=151.5),
        )
        cluster = replicated_cluster(TransferStrategy.FULL_COPY, costs=costs)
        home, peer = cluster.nodes
        fn = nop_function(owner="late")
        cluster.invoke_sync(fn)  # times out; the cold start finishes anyway
        cluster.env.run(until=cluster.env.now + 50.0)
        home.uc_cache.drop_function(fn.key)
        result = cluster.invoke_sync(fn)
        cluster.env.run(until=cluster.env.now + 50.0)
        assert result.error == "request timed out"
        assert fn.key in peer.snapshot_cache
        assert peer.stats.warm == 1
        assert peer.stats.total == 1

    def test_cancelled_deploy_ships_nothing(self):
        # With cancellation on, the watchdog interrupts the peer's
        # invocation 0.7 ms into the 1.8 ms transfer: nothing is counted
        # or installed, and both NICs are free again.
        cluster = replicated_cluster(
            TransferStrategy.FULL_COPY,
            overload=OverloadConfig(deadline_ms=151.5, cancel_expired=True),
        )
        home, peer = cluster.nodes
        fn = nop_function(owner="cancelled")
        home.invoke_sync(fn)
        home.uc_cache.drop_function(fn.key)
        cluster.invoke_sync(nop_function(owner="spacer"))  # home's turn
        result = cluster.invoke_sync(fn)
        cluster.env.run(until=cluster.env.now + 50.0)
        assert result.error == "request timed out"
        fabric = _fabric(cluster)
        assert fabric.stats.transfers == 0
        assert fn.key not in peer.snapshot_cache
        for nic in fabric._nics:
            assert not nic.users and not nic.queue
        assert peer.cancelled_count == 1
        assert audit_node(peer) == []

    def test_replica_without_room_is_not_installed(self):
        cluster = replicated_cluster(TransferStrategy.FULL_COPY)
        home, peer = cluster.nodes
        fn = nop_function(owner="no-room")
        cluster.invoke_sync(fn)
        home.uc_cache.drop_function(fn.key)
        peer.allocator.allocate(peer.allocator.free_pages, "pinned")
        result = cluster.invoke_sync(fn)
        assert not result.success  # no room to deploy anything either
        assert result.transferred_mb == 0.0
        assert fn.key not in peer.snapshot_cache
        assert audit_node(peer) == []

    def test_replication_needs_seuss_nodes(self):
        from repro.faas.cluster import FaasCluster
        from repro.linuxnode.node import LinuxNode

        env = Environment()
        node = LinuxNode(env)
        node.start_stemcell_pool()
        with pytest.raises(ConfigError):
            FaasCluster(env, node, replication=TransferStrategy.COLORED)


class TestCrashedNodes:
    """No replica ever moves to or from a crashed node."""

    def test_no_replica_ships_to_a_crashed_node(self):
        cluster = replicated_cluster(TransferStrategy.FULL_COPY)
        home, peer = cluster.nodes
        fn = nop_function(owner="down-dst")
        cluster.invoke_sync(fn)
        home.uc_cache.drop_function(fn.key)
        peer.crash()
        result = cluster.invoke_sync(fn)
        assert not result.success
        assert result.error == "node crashed"
        assert result.transferred_mb == 0.0
        assert _fabric(cluster).stats.transfers == 0
        # The down node's caches stay empty: they rebuild cold.
        assert fn.key not in peer.snapshot_cache

    def test_destination_crashing_mid_transfer_answers_node_crashed(self):
        cluster = replicated_cluster(TransferStrategy.FULL_COPY)
        env = cluster.env
        home, peer = cluster.nodes
        fn = nop_function(owner="down-mid")
        cluster.invoke_sync(fn)
        home.uc_cache.drop_function(fn.key)
        process = cluster.invoke(fn)
        # The peer's attempt starts 150.8 ms after the send; its 1.8 ms
        # transfer is still in flight 0.7 ms later.
        env.run(until=env.now + 151.5)
        peer.crash()
        result = env.run(until=process)
        assert not result.success
        assert result.error == "node crashed"
        assert result.transferred_mb == 0.0
        assert fn.key not in peer.snapshot_cache
        assert len(peer.uc_cache) == 0

    def test_no_replica_ships_from_a_crashed_holder(self):
        cluster = replicated_cluster(TransferStrategy.FULL_COPY)
        env = cluster.env
        home, peer = cluster.nodes
        fn = io_bound_function("down-src")
        cluster.invoke_sync(fn)
        # An in-flight invocation pins the snapshot, so it survives the
        # crash in the down node's cache.
        home.invoke(fn)
        env.run(until=env.now + 1.0)
        home.crash()
        assert fn.key in home.snapshot_cache
        result = cluster.invoke_sync(fn)
        assert result.success
        assert result.path is InvocationPath.COLD
        assert result.transferred_mb == 0.0
        assert _fabric(cluster).stats.transfers == 0


class TestConservation:
    """Replication under sharding, affinity, node crashes and retries."""

    def test_requests_nics_and_nodes_balance(self):
        cluster = replicated_cluster(
            TransferStrategy.RECORDED,
            nodes=4,
            shards=4,
            routing="snapshot_affinity",
            faults=FaultPlan(seed=7, node_crash_p=0.02, node_restart_ms=80.0),
            retries=RESILIENT_RETRIES,
        )
        env = cluster.env
        functions = [
            cpu_bound_function(f"cons{index}", exec_ms=20.0)
            for index in range(12)
        ]

        def client(offset):
            for step in range(30):
                fn = functions[(offset + step * 5) % len(functions)]
                yield cluster.invoke(fn)

        clients = [env.process(client(offset)) for offset in range(16)]
        env.run(until=env.all_of(clients))
        env.run()

        stats = cluster.control_plane.controller_stats()
        assert stats.received == 16 * 30
        assert stats.received == stats.succeeded + stats.failed
        fabric = _fabric(cluster)
        assert fabric.stats.transfers > 0
        assert sum(node.crash_count for node in cluster.nodes) > 0
        for nic in fabric._nics:
            assert not nic.users and not nic.queue
        for node in cluster.nodes:
            assert audit_node(node) == []
