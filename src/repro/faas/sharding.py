"""The sharded control plane: N controllers, consistent-hash routing.

A single :class:`~repro.faas.controller.Controller` funnels every
invocation through one dispatch loop and — on the SEUSS deployment —
one shim TCP connection, which Table 3 measures at ~128 req/s.  That
is the scaling wall for fleet-sized simulations.  This module splits
the control plane into N shards:

* :class:`ConsistentHashRing` — ``fn.key`` → shard via a
  seed-independent (BLAKE2) hash ring with virtual nodes, so a key's
  shard is stable across runs and processes, and adding/removing a
  shard moves only ~1/N of the keyspace.
* :class:`ControlPlaneShard` — one controller plus everything it owns
  *per shard*: its own message bus, its own shim connection (on SEUSS
  deployments), its own :class:`~repro.faas.health.NodeRouter` with
  per-shard circuit breakers, its own
  :class:`~repro.faas.overload.OverloadControl` (admission queues +
  retry budget) and its own ``ControllerStats`` — so the PR 1 retry /
  breaker semantics and the PR 6 overload semantics hold shard-locally.
* :class:`ShardedControlPlane` — the front door: hashes the function
  key, counts the dispatch (``route.shard`` counter + per-shard
  dispatch gauges when tracing), and forwards to the owning shard's
  controller.

All shards route over the *same* compute nodes — sharding splits the
control plane, not the fleet.  Each shard wraps every node in its own
:class:`~repro.faas.health.NodeHealth` (breaker state is shard-local
observation, as it is for independent controller replicas in a real
deployment), while load signals read node-global state (core
occupancy, admission-queue depth) so shards see each other's load.

Every :class:`~repro.faas.cluster.FaasCluster` owns one of these; the
default one-shard, round-robin plane replays the exact event schedule
of the historical single-controller wiring — locked down by the
quick-suite goldens and ``tests/test_sharding_zero_perturbation.py``.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right, insort
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.costs import CostBook, DEFAULT_COSTS
from repro.distributed.replicas import ReplicaFetcher
from repro.distributed.transfer import TransferStrategy
from repro.errors import ConfigError
from repro.faas.controller import Controller, ControllerStats, RetryPolicy
from repro.faas.health import (
    BreakerPolicy,
    CircuitBreaker,
    NodeHealth,
    NodeRouter,
)
from repro.faas.messagebus import MessageBus
from repro.faas.overload import OverloadConfig, OverloadControl
from repro.faas.records import FunctionSpec, InvocationResult
from repro.faas.routing import (
    LeastLoadedPolicy,
    RoutingPolicy,
    RoutingStats,
    make_policy,
)
from repro.sim import Environment, Process
from repro.trace import tracer_for

#: Virtual ring points per shard.  64 keeps the spread over 10k keys
#: within a few percent of even while ring rebuilds stay trivial.
DEFAULT_HASH_REPLICAS = 64


def stable_hash(text: str) -> int:
    """64-bit hash that ignores ``PYTHONHASHSEED`` (BLAKE2b).

    Shard assignment must be identical across runs, hosts and worker
    processes — Python's built-in ``hash`` is salted per process and
    would reshuffle the fleet every run.
    """
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ConsistentHashRing:
    """Classic consistent hashing: keys → shard ids, bounded movement.

    Each shard owns ``replicas`` pseudo-random points on a 64-bit ring;
    a key maps to the first shard point clockwise from the key's hash.
    Adding a shard steals ~1/(N+1) of every other shard's keys;
    removing one redistributes only its own keys.
    """

    def __init__(
        self,
        shard_ids: Sequence[int] = (),
        replicas: int = DEFAULT_HASH_REPLICAS,
    ) -> None:
        if replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        #: Sorted ``(point, shard_id)`` ring; ties (vanishingly rare)
        #: break deterministically by shard id via tuple order.
        self._ring: List[Tuple[int, int]] = []
        self._shards: Dict[int, List[Tuple[int, int]]] = {}
        for shard_id in shard_ids:
            self.add(shard_id)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id: int) -> bool:
        return shard_id in self._shards

    @property
    def shard_ids(self) -> List[int]:
        return sorted(self._shards)

    def add(self, shard_id: int) -> None:
        if shard_id in self._shards:
            raise ConfigError(f"shard {shard_id} already on the ring")
        points = [
            (stable_hash(f"shard:{shard_id}:{replica}"), shard_id)
            for replica in range(self.replicas)
        ]
        self._shards[shard_id] = points
        for point in points:
            insort(self._ring, point)

    def remove(self, shard_id: int) -> None:
        points = self._shards.pop(shard_id, None)
        if points is None:
            raise ConfigError(f"shard {shard_id} not on the ring")
        owned = set(points)
        self._ring = [point for point in self._ring if point not in owned]

    def shard_for(self, key: str) -> int:
        """The shard owning ``key`` (deterministic across processes)."""
        if not self._ring:
            raise ConfigError("hash ring has no shards")
        probe = (stable_hash(key), -1)
        index = bisect_right(self._ring, probe)
        if index == len(self._ring):
            index = 0  # wrap: past the last point → first point
        return self._ring[index][1]


def node_outstanding(node) -> int:
    """Node-global load signal: running + core-queued invocations.

    Reads the node's core :class:`~repro.sim.Resource` directly, so
    every shard sees load placed by every other shard (admission-queue
    depths, by contrast, are shard-local).
    """
    cores = getattr(node, "cores", None)
    if cores is None:
        return 0
    return len(cores.users) + len(cores.queue)


class ControlPlaneShard:
    """One controller shard and everything it owns."""

    def __init__(
        self,
        shard_id: int,
        controller: Controller,
        router: NodeRouter,
        overload: Optional[OverloadControl],
    ) -> None:
        self.shard_id = shard_id
        self.controller = controller
        self.router = router
        self.overload = overload
        #: Requests this shard was handed by the hash ring.
        self.dispatched = 0

    @property
    def stats(self) -> ControllerStats:
        return self.controller.stats

    def __repr__(self) -> str:
        return (
            f"ControlPlaneShard(id={self.shard_id}, "
            f"dispatched={self.dispatched})"
        )


class ShardedControlPlane:
    """N controller shards fronting one shared compute fleet.

    ``routing`` is a policy name (``round_robin`` / ``least_loaded`` /
    ``snapshot_affinity``) or a ready
    :class:`~repro.faas.routing.RoutingPolicy` factory taking the load
    signal; every shard gets its own policy instance where the policy
    is stateful.  ``shim_factory`` (shard_id → shim) models one shim
    TCP connection per controller shard on SEUSS deployments — the
    per-shard serialization Table 3 measures stays, but shards no
    longer share one connection.  ``replication`` (a transfer
    strategy) builds one :class:`~repro.distributed.replicas.ReplicaFetcher`
    that serves every node: each node's own invocation fetches a peer's
    replica (remote-warm), and snapshot-affinity routing prices spills
    with the fetcher's strategy.
    """

    def __init__(
        self,
        env: Environment,
        nodes: Sequence,
        costs: CostBook = DEFAULT_COSTS,
        shards: int = 1,
        routing: Union[str, Callable[[Callable], RoutingPolicy]] = "round_robin",
        shim_factory: Optional[Callable[[int], object]] = None,
        retries: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        overload: Optional[OverloadConfig] = None,
        injector=None,
        replication: Optional[TransferStrategy] = None,
    ) -> None:
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        if not nodes:
            raise ConfigError("sharded control plane needs >= 1 node")
        self.env = env
        self.costs = costs
        self.nodes = list(nodes)
        self.breaker_policy = breaker or BreakerPolicy()
        if overload is not None and not overload.enabled:
            overload = None
        self.overload_config = overload
        self.replicas: Optional[ReplicaFetcher] = (
            ReplicaFetcher(env, self.nodes, replication, node_outstanding)
            if replication is not None
            else None
        )
        self.ring = ConsistentHashRing(range(shards))
        self.shards: List[ControlPlaneShard] = []
        for shard_id in range(shards):
            shard_overload = (
                OverloadControl(env, overload) if overload is not None else None
            )
            router = NodeRouter(env=env)
            policy = self._build_policy(routing, shard_overload)
            if policy is not None:
                router.policy = policy
            controller = Controller(
                env,
                self.nodes[0],
                costs.platform,
                shim=shim_factory(shard_id) if shim_factory else None,
                bus=MessageBus(env, injector=injector),
                retries=retries,
                router=router,
                overload=shard_overload,
            )
            controller.shard_id = shard_id
            shard = ControlPlaneShard(shard_id, controller, router, shard_overload)
            self.shards.append(shard)
            for node in self.nodes:
                self._attach(shard, node)
        #: The shard that owns every key of a one-shard plane, else
        #: ``None`` (the shards are fixed at construction).
        self._only_shard = self.shards[0] if shards == 1 else None

    # -- wiring ------------------------------------------------------------
    def _build_policy(
        self, routing, shard_overload: Optional[OverloadControl]
    ) -> Optional[RoutingPolicy]:
        """Resolve the routing knob into one shard's policy instance.

        The load signal prefers the shard's admission-queue depth when
        overload queues are configured, falling back to node-global core
        occupancy.  Bounded queues are backpressure: under the default
        ``round_robin`` name they install least-loaded routing on queue
        depth, so bursts drain toward the least-congested node instead
        of rotating blindly.
        """
        if shard_overload is not None and shard_overload.config.queue_depth is not None:
            load_of = lambda health: shard_overload.depth_of(health.node)  # noqa: E731
            if routing == "round_robin":
                return LeastLoadedPolicy(load_of)
        else:
            load_of = lambda health: node_outstanding(health.node)  # noqa: E731
        if isinstance(routing, str):
            if routing == "round_robin":
                return None  # keep the router's fast-path default
            return make_policy(routing, load_of=load_of)
        return routing(load_of)

    def _attach(self, shard: ControlPlaneShard, node) -> None:
        shard.router.add(
            NodeHealth(node, CircuitBreaker(self.env, self.breaker_policy))
        )
        if shard.overload is not None:
            shard.overload.register_node(node)

    def add_node(self, node) -> None:
        """Join an initialized compute node to every shard's rotation."""
        self.nodes.append(node)
        if self.replicas is not None:
            self.replicas.add_node(node)
        for shard in self.shards:
            self._attach(shard, node)

    # -- dispatch ----------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_for(self, key: str) -> ControlPlaneShard:
        shards = self.shards
        if len(shards) == 1:
            # One shard owns every key: no ring lookup.
            return shards[0]
        return shards[self.ring.shard_for(key)]

    def _dispatch(self, fn: FunctionSpec) -> ControlPlaneShard:
        """Hash ``fn`` to its shard and count the dispatch."""
        shard = self._only_shard
        if shard is None:
            shard = self.shard_for(fn.key)
        shard.dispatched += 1
        tracer = tracer_for(self.env)
        if tracer.enabled:
            tracer.counter("route.shard")
            tracer.gauge(
                f"shard.{shard.shard_id}.dispatched", shard.dispatched
            )
        return shard

    def invoke(self, fn: FunctionSpec) -> Process:
        """Start one client invocation on the owning shard."""
        return self.env.start(self._dispatch(fn).controller.invoke(fn))

    def invoke_batch(self, fns: Iterable[FunctionSpec]) -> List[Process]:
        """Start a same-tick volley; returns processes in input order.

        The volley is grouped by owning shard and each group goes
        through :meth:`Controller.invoke_batch`, so every shard's share
        rides one shared pre-node dispatch tick.
        """
        fns = list(fns)
        groups: Dict[ControlPlaneShard, List[int]] = {}
        for index, fn in enumerate(fns):
            groups.setdefault(self._dispatch(fn), []).append(index)
        processes: List[Optional[Process]] = [None] * len(fns)
        for shard, indices in groups.items():
            batch = shard.controller.invoke_batch([fns[i] for i in indices])
            for index, process in zip(indices, batch):
                processes[index] = process
        return processes

    def invoke_sync(self, fn: FunctionSpec) -> InvocationResult:
        return self.env.run(until=self.invoke(fn))

    # -- aggregation -------------------------------------------------------
    def controller_stats(self) -> ControllerStats:
        """All shards' controller counters folded into one record."""
        total = ControllerStats()
        for shard in self.shards:
            stats = shard.stats
            total.received += stats.received
            total.succeeded += stats.succeeded
            total.failed += stats.failed
            total.timed_out += stats.timed_out
            total.throttled += stats.throttled
            total.retried += stats.retried
            total.recovered += stats.recovered
            total.retry_exhausted += stats.retry_exhausted
            total.circuit_rejected += stats.circuit_rejected
            total.deadline_rejected += stats.deadline_rejected
        return total

    def routing_stats(self) -> RoutingStats:
        """All shards' routing counters folded into one record."""
        total = RoutingStats()
        for shard in self.shards:
            total.merge(shard.router.stats)
        return total

    def dispatch_counts(self) -> Dict[int, int]:
        return {shard.shard_id: shard.dispatched for shard in self.shards}

    @property
    def routing_policy_name(self) -> str:
        return self.shards[0].router.policy.name

    def healths(self) -> List[NodeHealth]:
        """Every shard's node-health wrappers (breaker aggregation)."""
        return [
            health for shard in self.shards for health in shard.router.healths
        ]

    def __repr__(self) -> str:
        return (
            f"ShardedControlPlane(shards={self.shard_count}, "
            f"nodes={len(self.nodes)}, "
            f"routing={self.routing_policy_name})"
        )
