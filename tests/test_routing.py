"""The routing layer: shared helpers, policies, and dedup regression.

The regression classes pin the router to the exact picks the inlined
``NodeRouter.prefer_least_loaded`` made before ``repro.faas.routing``
existed, and pin snapshot-affinity routing on clusters that ship
snapshot replicas.
"""

from __future__ import annotations

import pytest

from repro.distributed.transfer import TransferStrategy, transfer_plan
from repro.errors import CircuitOpenError, ConfigError
from repro.experiments.extensions import replicated_cluster
from repro.faas.cluster import FaasCluster
from repro.faas.health import (
    BreakerPolicy,
    CircuitBreaker,
    NodeHealth,
    NodeRouter,
)
from repro.faas.routing import (
    ROUND_ROBIN,
    LeastLoadedPolicy,
    RoutingStats,
    SnapshotAffinityPolicy,
    make_policy,
    node_holds,
    rank_by_load,
)
from repro.seuss.node import SeussNode
from repro.sim import Environment
from repro.workload.functions import nop_function


class FakeNode:
    """A routable stand-in with no snapshot state."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"FakeNode({self.name})"


def _router(env, count, policy=None):
    router = NodeRouter(policy=policy, env=env)
    for index in range(count):
        router.add(
            NodeHealth(FakeNode(index), CircuitBreaker(env, BreakerPolicy()))
        )
    return router


# -- shared helpers ---------------------------------------------------------
class TestSharedHelpers:
    def test_rank_by_load_is_stable_on_ties(self):
        items = ["a", "b", "c", "d"]
        loads = {"a": 1, "b": 0, "c": 0, "d": 1}
        assert rank_by_load(items, loads.get) == ["b", "c", "a", "d"]

    def test_make_policy_names(self):
        assert make_policy("round_robin") is ROUND_ROBIN
        assert isinstance(
            make_policy("least_loaded", load_of=lambda h: 0), LeastLoadedPolicy
        )
        assert isinstance(
            make_policy("snapshot_affinity"), SnapshotAffinityPolicy
        )

    def test_make_policy_least_loaded_requires_signal(self):
        with pytest.raises(ConfigError):
            make_policy("least_loaded")

    def test_make_policy_unknown_name(self):
        with pytest.raises(ConfigError):
            make_policy("lowest_latency")


# -- dedup regression: faas router ------------------------------------------
class TestRouterDedupRegression:
    """The policy-based router picks exactly what the inlined code did."""

    def _historical_least_loaded_select(self, healths, next_index, load_of):
        """The pre-extraction ``NodeRouter.select`` with a load signal:
        walk offsets in rotation order, stable-sort by load, take the
        first admittable."""
        count = len(healths)
        offsets = list(range(count))
        offsets.sort(key=lambda o: load_of(healths[(next_index + o) % count]))
        for offset in offsets:
            health = healths[(next_index + offset) % count]
            if health.admit():
                return health, (next_index + offset + 1) % count
        raise CircuitOpenError("all unavailable")

    def test_least_loaded_matches_historical_sequence(self):
        env = Environment()
        loads = {}

        def load_of(health):
            return loads[health.node.name]

        new_router = _router(env, 4)
        new_router.prefer_least_loaded(load_of)
        old_healths = new_router.healths  # same objects, same order
        next_index = 0
        load_patterns = [
            {0: 2, 1: 0, 2: 1, 3: 0},
            {0: 0, 1: 0, 2: 0, 3: 0},
            {0: 5, 1: 4, 2: 3, 3: 2},
            {0: 1, 1: 1, 2: 0, 3: 1},
            {0: 0, 1: 3, 2: 3, 3: 3},
            {0: 2, 1: 2, 2: 2, 3: 1},
        ]
        for pattern in load_patterns:
            loads.clear()
            loads.update(pattern)
            expected, next_index = self._historical_least_loaded_select(
                old_healths, next_index, load_of
            )
            assert new_router.select() is expected
            assert new_router._next == next_index

    def test_round_robin_rotation_unchanged(self):
        env = Environment()
        router = _router(env, 3)
        picks = [router.select().node.name for _ in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]

    def test_rotation_skips_draining_node(self):
        env = Environment()
        router = _router(env, 3)
        router.healths[1].drain()
        picks = [router.select().node.name for _ in range(4)]
        assert picks == [0, 2, 0, 2]

    def test_all_unavailable_raises_circuit_open(self):
        env = Environment()
        router = _router(env, 2)
        for health in router.healths:
            health.drain()
        with pytest.raises(CircuitOpenError):
            router.select()


# -- affinity on replicating clusters ---------------------------------------
class TestDistributedDedupRegression:
    def test_affinity_pick_counts_locality(self):
        cluster = replicated_cluster(
            TransferStrategy.COLORED, routing="snapshot_affinity"
        )
        fn = nop_function("affine")
        cluster.invoke_sync(fn)  # cold somewhere: a miss
        cluster.invoke_sync(fn)  # holder exists now: a hit
        stats = cluster.control_plane.routing_stats()
        assert stats.locality_misses == 1
        assert stats.locality_hits == 1
        assert stats.decisions == 2
        assert cluster.control_plane.replicas.interconnect.stats.transfers == 0

    def test_affinity_prices_the_shipped_strategy(self):
        cluster = replicated_cluster(
            TransferStrategy.FULL_COPY, shards=2, routing="snapshot_affinity"
        )
        fn = nop_function("priced")
        cluster.invoke_sync(fn)
        holder = cluster.control_plane.shards[0].router.healths[0]
        snapshot = holder.node.snapshot_cache.get(fn.key)
        full_copy = transfer_plan(snapshot.size_mb, TransferStrategy.FULL_COPY)
        for shard in cluster.control_plane.shards:
            policy = shard.router.policy
            assert policy._acquisition_cost_ms([holder], fn.key) == (
                full_copy.upfront_ms
            )
        # Without replication the spill price stays RECORDED's.
        plain = FaasCluster.with_seuss_node(
            Environment(), routing="snapshot_affinity"
        )
        plain.invoke_sync(fn)
        holder = plain.control_plane.shards[0].router.healths[0]
        assert holder.node.replicas is None
        recorded = transfer_plan(snapshot.size_mb, TransferStrategy.RECORDED)
        policy = plain.control_plane.shards[0].router.policy
        assert policy._acquisition_cost_ms([holder], fn.key) == (
            recorded.upfront_ms + recorded.residual_penalty_ms
        )
        assert recorded.upfront_ms + recorded.residual_penalty_ms != (
            full_copy.upfront_ms
        )


# -- snapshot affinity policy ------------------------------------------------
class TestSnapshotAffinityPolicy:
    def _seuss_healths(self, env, count):
        healths = []
        for _ in range(count):
            node = SeussNode(env)
            node.initialize_sync()
            healths.append(
                NodeHealth(node, CircuitBreaker(env, BreakerPolicy()))
            )
        return healths

    def test_holder_ranks_first(self):
        env = Environment()
        healths = self._seuss_healths(env, 3)
        fn = nop_function("sticky")
        env.run(until=healths[2].node.invoke(fn))
        assert node_holds(healths[2].node, fn.key)
        policy = SnapshotAffinityPolicy()
        ranked = policy.rank(healths, fn)
        assert ranked[0] is healths[2]

    def test_no_holder_preserves_candidate_order(self):
        env = Environment()
        healths = self._seuss_healths(env, 3)
        policy = SnapshotAffinityPolicy()
        assert list(policy.rank(healths, nop_function("new"))) == healths

    def test_loaded_holder_spills_past_breakeven(self):
        env = Environment()
        healths = self._seuss_healths(env, 2)
        fn = nop_function("hot")
        env.run(until=healths[0].node.invoke(fn))
        loads = {id(healths[0]): 10_000, id(healths[1]): 0}
        policy = SnapshotAffinityPolicy(load_of=lambda h: loads[id(h)])
        ranked = policy.rank(healths, fn)
        # The holder is loaded far past any plausible transfer cost:
        # the non-holder must come first.
        assert ranked[0] is healths[1]
        stats = RoutingStats()
        policy.note_selected(healths[1], fn, stats)
        assert stats.spills == 1
        assert stats.locality_misses == 1

    def test_pricing_a_spill_counts_no_snapshot_hit(self):
        env = Environment()
        healths = self._seuss_healths(env, 2)
        holder = healths[0].node
        priced, later = nop_function("priced"), nop_function("later")
        env.run(until=holder.invoke(priced))
        env.run(until=holder.invoke(later))
        cache = holder.snapshot_cache
        hits, order = cache.stats.hits, list(cache._policy._order)
        loads = {id(healths[0]): 10_000, id(healths[1]): 0}
        policy = SnapshotAffinityPolicy(load_of=lambda h: loads[id(h)])
        for _ in range(5):
            assert policy.rank(healths, priced)[0] is healths[1]
        # Pricing read the snapshot without deploying it: no hit, and
        # the LRU victim is still the snapshot nobody deployed since.
        assert cache.stats.hits == hits
        assert list(cache._policy._order) == order
        assert cache._policy.victim() == priced.key

    def test_loaded_holder_below_breakeven_still_preferred(self):
        env = Environment()
        healths = self._seuss_healths(env, 2)
        fn = nop_function("warmish")
        env.run(until=healths[0].node.invoke(fn))
        loads = {id(healths[0]): 1, id(healths[1]): 0}
        # A tiny queue cost makes the break-even margin enormous, so a
        # one-request gap must not spill off the holder.
        policy = SnapshotAffinityPolicy(
            load_of=lambda h: loads[id(h)], queue_cost_ms=0.001
        )
        assert policy.rank(healths, fn)[0] is healths[0]

    def test_equally_loaded_holder_beats_rotation_order(self):
        env = Environment()
        healths = self._seuss_healths(env, 2)
        fn = nop_function("evenload")
        env.run(until=healths[1].node.invoke(fn))
        policy = SnapshotAffinityPolicy(load_of=lambda h: 0)
        # The holder is second in rotation order but still ranks first.
        assert policy.rank(healths, fn)[0] is healths[1]

    def test_note_selected_counts_hits(self):
        env = Environment()
        healths = self._seuss_healths(env, 2)
        fn = nop_function("counted")
        env.run(until=healths[0].node.invoke(fn))
        policy = SnapshotAffinityPolicy()
        stats = RoutingStats()
        policy.note_selected(healths[0], fn, stats)
        policy.note_selected(healths[1], fn, stats)
        assert stats.locality_hits == 1
        assert stats.locality_misses == 1
        assert stats.locality_hit_rate == 0.5

    def test_linux_node_never_reports_locality(self):
        from repro.linuxnode.node import LinuxNode

        env = Environment()
        node = LinuxNode(env)
        node.start_stemcell_pool()
        fn = nop_function("plain")
        env.run(until=node.invoke(fn))
        assert not node_holds(node, fn.key)

    def test_queue_cost_must_be_positive(self):
        with pytest.raises(ConfigError):
            SnapshotAffinityPolicy(queue_cost_ms=0.0)


# -- router stats through a cluster ------------------------------------------
class TestRouterLocalityThroughCluster:
    def test_affinity_cluster_counts_hits_after_warmup(self):
        env = Environment()
        cluster = FaasCluster.with_seuss_node(
            env, routing="snapshot_affinity"
        )
        node = SeussNode(env, costs=cluster.costs)
        node.initialize_sync()
        cluster.add_node(node)
        fn = nop_function("resident")
        env.run(until=cluster.invoke(fn))  # cold: miss
        env.run(until=cluster.invoke(fn))  # holder exists: hit
        stats = cluster.control_plane.routing_stats()
        assert stats.locality_misses == 1
        assert stats.locality_hits == 1
