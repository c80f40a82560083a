"""The stock OpenWhisk Linux compute node.

:class:`LinuxNode` implements the same ``invoke`` interface as
:class:`repro.seuss.node.SeussNode`, but services invocations with
Docker containers: a hot path reusing an idle per-function container, a
warm path importing code into a pre-warmed stemcell, and a cold path
that — once the container cache is full — must evict (stop + delete) a
container and create a fresh one on a congested Docker daemon and a
saturating bridge.  That eviction+creation tax under load is the paper's
explanation for the Linux collapse in Figures 4–8.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, Generator, List, Optional

from repro.costs import CostBook, DEFAULT_COSTS
from repro.faas.records import (
    FunctionSpec,
    InvocationLedger,
    InvocationPath,
    InvocationStage,
    PathCounts,
)
from repro.linuxnode.bridge import VirtualBridge
from repro.linuxnode.config import LinuxNodeConfig
from repro.linuxnode.instances import Instance, InstanceKind, InstanceState
from repro.linuxnode.stemcell import StemcellPool
from repro.mem.frames import FrameAllocator, node_allocator
from repro.seuss.idle_pool import IdlePool
from repro.seuss.policy import make_policy
from repro.sim import Environment, Event, Interrupted, Process, Resource

#: Broadcast packets (ARP/DHCP) sent while plumbing a container's veth.
CREATION_BROADCASTS = 3

#: Breakdown stage keys.
STAGE_EVICT = "evict"
STAGE_CREATE = "container_create"
STAGE_IMPORT = "import_code"
STAGE_HOT = "container_hot"
STAGE_EXEC = "execute"
STAGE_IO_WAIT = "io_wait"


class LinuxNode:
    """OpenWhisk invoker host: Linux + Docker (+ optional stemcells)."""

    def __init__(
        self,
        env: Environment,
        config: Optional[LinuxNodeConfig] = None,
        costs: CostBook = DEFAULT_COSTS,
    ) -> None:
        self.env = env
        self.config = config or LinuxNodeConfig()
        self.costs = costs
        self.rng = random.Random(self.config.seed)
        self.allocator: FrameAllocator = node_allocator(
            self.config.memory_gb, self.config.system_reserved_mb, env
        )
        self.cores = Resource(env, self.config.cores)
        self.bridge = VirtualBridge(costs.linux, self.rng)
        #: Eviction order of the idle containers over function keys.
        self.cache_policy = make_policy(self.config.cache_policy, env=env)
        #: Idle containers per function, with no per-function limit.
        self.idle_pool = IdlePool(
            None,
            policy=self.cache_policy,
            env=env,
            unit="container",
        )
        self._busy_count = 0
        self._creating_count = 0
        self._creations_in_flight = 0
        self._capacity_waiters: Deque[Event] = deque()
        self.stemcells = StemcellPool(
            env,
            self,
            target=self.config.stemcell_pool_size,
            concurrency=self.config.stemcell_repopulate_concurrency,
        )
        self.stats = PathCounts()
        #: Overload-control accounting (mirrors SeussNode): cancelled
        #: invocations, zombies finished past their deadline, and the
        #: core time both burned.  Zero unless deadlines propagate.
        self.cancelled_count = 0
        self.zombie_count = 0
        self.wasted_ms = 0.0
        #: Core time spent on completions somebody received.
        self.useful_ms = 0.0
        # Raw instances from the Table 3 density / creation-rate tests.
        self.raw_instances: Dict[InstanceKind, List[Instance]] = {
            kind: [] for kind in InstanceKind
        }
        self._raw_in_flight: Dict[InstanceKind, int] = {
            kind: 0 for kind in InstanceKind
        }

    # -- container accounting ----------------------------------------------
    @property
    def total_containers(self) -> int:
        return (
            len(self.idle_pool)
            + self._busy_count
            + self._creating_count
            + len(self.stemcells)
        )

    def has_container_capacity(self) -> bool:
        return self.total_containers < self.config.container_cache_limit

    def start_stemcell_pool(self) -> None:
        self.stemcells.prefill()
        self.stemcells.start()

    def materialize_container(self) -> Optional[Instance]:
        """Create an idle generic container with no time charged.

        Setup-phase helper (stemcell prefill); trial-time creation must
        go through :meth:`create_container`.
        """
        pages = InstanceKind.CONTAINER.footprint_pages(self.costs.linux)
        if not self.allocator.try_allocate(pages, InstanceKind.CONTAINER.value):
            return None
        self.bridge.attach()
        return Instance(
            kind=InstanceKind.CONTAINER,
            footprint_pages=pages,
            created_at_ms=self.env.now,
            state=InstanceState.IDLE,
        )

    def _notify_capacity(self) -> None:
        """Wake one cold-start waiting for an evictable container."""
        while self._capacity_waiters:
            waiter = self._capacity_waiters.popleft()
            if not waiter.triggered:
                waiter.succeed()
                return

    def _destroy_container(self, instance: Instance) -> None:
        self.allocator.free(instance.footprint_pages, InstanceKind.CONTAINER.value)
        self.bridge.detach()
        instance.state = InstanceState.DESTROYED

    # -- container creation ------------------------------------------------
    def create_container(self, generic: bool = False) -> Generator:
        """Sim process: create one container; returns it or None.

        ``None`` means the container's control connection failed (the
        bridge-saturation timeouts of §7) or memory ran out; the time
        was spent regardless.  The caller owns the slot bookkeeping of
        the returned container (it starts BUSY for invocation callers,
        or is handed to the stemcell pool).
        """
        self._creating_count += 1
        self._creations_in_flight += 1
        created = False
        # The counter bookkeeping lives in finally blocks so that a
        # cancellation delivered during the creation sleep cannot leak
        # a phantom "creating" slot (which would pin container capacity
        # forever); an aborted creation also passes its capacity wake on.
        try:
            try:
                duration = self.costs.linux.container_create_ms(
                    existing=self.total_containers - 1,
                    concurrent=self._creations_in_flight,
                )
                duration += CREATION_BROADCASTS * self.bridge.broadcast_cost_ms()
                yield self.env.timeout(duration)
                failed = self.bridge.roll_connection_failure(
                    self._creations_in_flight
                )
            finally:
                self._creations_in_flight -= 1

            pages = InstanceKind.CONTAINER.footprint_pages(self.costs.linux)
            if failed or not self.allocator.try_allocate(
                pages, InstanceKind.CONTAINER.value
            ):
                return None

            self.bridge.attach()
            instance = Instance(
                kind=InstanceKind.CONTAINER,
                footprint_pages=pages,
                created_at_ms=self.env.now,
                state=InstanceState.BUSY,
            )
            created = True
            if generic:
                # Stemcells are pooled, not busy; pool length counts them.
                instance.state = InstanceState.IDLE
            else:
                self._busy_count += 1
            return instance
        finally:
            self._creating_count -= 1
            if not created:
                self._notify_capacity()

    # -- platform invocation ----------------------------------------------
    def invoke(
        self,
        fn: FunctionSpec,
        deadline_ms: Optional[float] = None,
        cancel_expired: bool = False,
    ) -> Process:
        """Start servicing an invocation; the process's value is a
        :class:`NodeInvocation`.

        ``deadline_ms`` / ``cancel_expired`` mirror
        :meth:`repro.seuss.node.SeussNode.invoke`: the client's absolute
        deadline, and whether expired work is aborted (and cancellable)
        rather than finishing as a zombie.  Both default off.
        """
        return self.env.start(
            self._invoke(
                fn, deadline_ms=deadline_ms, cancel_expired=cancel_expired
            )
        )

    def _invoke(
        self,
        fn: FunctionSpec,
        deadline_ms: Optional[float] = None,
        cancel_expired: bool = False,
    ) -> Generator:
        env = self.env
        costs = self.costs.linux
        ledger = InvocationLedger(self, fn, deadline_ms, cancel_expired)
        # Cancellation-safe ownership state: what this invocation holds
        # right now, so an Interrupted at any yield can hand it all back.
        instance = None
        waiter = None
        holds_slot = False

        try:
            instance = self.idle_pool.pop(fn.key, ledger.tracer)
            if instance is not None:
                instance.state = InstanceState.BUSY
                self._busy_count += 1
                ledger.path = InvocationPath.HOT
                if self.config.pause_containers:
                    # Idle containers were paused; resume before use.  The
                    # paper disables pausing because this tax destabilizes
                    # the hot path under heavy load.
                    yield env.timeout(
                        ledger.charge("unpause", costs.container_unpause_ms)
                    )
                yield env.timeout(ledger.charge(STAGE_HOT, costs.container_hot_ms))
                ledger.reached(InvocationStage.CODE_IMPORTED)
            else:
                stemcell = self.stemcells.take()
                if stemcell is not None:
                    ledger.path = InvocationPath.WARM
                    instance = stemcell
                    instance.state = InstanceState.BUSY
                    self._busy_count += 1
                    instance.bind(fn.key)
                else:
                    ledger.path = InvocationPath.COLD
                    # Make room in the container cache, waiting for an
                    # evictable container if everything is busy.  The
                    # slot an eviction frees is held, counted as
                    # creating, through the teardown, so no cold start
                    # arriving meanwhile can take it as well.
                    while not self.has_container_capacity():
                        # The policy's victim idle container, else a stemcell.
                        victim = self.idle_pool.evict()
                        if victim is None:
                            victim = self.stemcells.evict_one()
                        if victim is not None:
                            self._destroy_container(victim)
                            self._creating_count += 1
                            holds_slot = True
                            yield env.timeout(
                                ledger.charge(STAGE_EVICT, costs.container_destroy_ms)
                            )
                            # create_container counts the slot from here.
                            self._creating_count -= 1
                            holds_slot = False
                            break
                        waiter = Event(env)
                        self._capacity_waiters.append(waiter)
                        yield waiter
                        waiter = None
                    creation_started = env.now
                    instance = yield from self.create_container()
                    ledger.charge_since(STAGE_CREATE, creation_started)
                    if instance is None:
                        # The container's control connection timed out; the
                        # client-side request will error at the platform
                        # timeout (the 'x' marks of Figures 6-8).  The
                        # error counts now, the answer comes after a stall.
                        stall = self.costs.platform.request_timeout_ms * 1.1
                        failed = ledger.fail(
                            "container connection timed out (bridge)",
                            stall_ms=stall,
                        )
                        yield env.timeout(stall)
                        return failed
                    instance.bind(fn.key)
                ledger.reached(InvocationStage.ENVIRONMENT_CREATED)
                ledger.reached(InvocationStage.RUNTIME_INITIALIZED)
                yield env.timeout(
                    ledger.charge(STAGE_IMPORT, costs.container_import_ms)
                )
                ledger.reached(InvocationStage.CODE_IMPORTED)

            ledger.reached(InvocationStage.ARGUMENTS_LOADED)
            ledger.check_deadline()
            try:
                core = ledger.request_core()
                if not core.processed:
                    yield core
                ledger.core_granted()
                yield env.timeout(ledger.charge(STAGE_EXEC, fn.exec_ms))
                if fn.io_wait_ms > 0:
                    ledger.release_core()
                    yield env.timeout(ledger.charge(STAGE_IO_WAIT, fn.io_wait_ms))
                    core = ledger.request_core()
                    if not core.processed:
                        yield core
                    ledger.core_granted()
            finally:
                ledger.release_core()

            ledger.reached(InvocationStage.EXECUTED)
            ledger.reached(InvocationStage.RESULT_RETURNED)
            instance.invocations += 1
            instance.state = InstanceState.IDLE
            self._busy_count -= 1
            self.idle_pool.put(fn.key, instance, ledger.tracer)
            self._notify_capacity()
            return ledger.finish()
        except Interrupted as exc:
            # Cancelled mid-flight: hand back everything held (the core
            # went back in the ``finally`` above).  The container is
            # destroyed (its partial state is unusable) and the freed
            # capacity wakes any cold start parked behind it.
            if waiter is not None:
                if waiter.triggered:
                    self._notify_capacity()  # pass the consumed wake on
                else:
                    try:
                        self._capacity_waiters.remove(waiter)
                    except ValueError:
                        pass
            if holds_slot:
                self._creating_count -= 1
                self._notify_capacity()
            if instance is not None:
                self._busy_count -= 1
                self._destroy_container(instance)
                self._notify_capacity()
            return ledger.cancel(exc)

    # -- Table 3: raw instance deployment -------------------------------------
    def deploy_instance(self, kind: InstanceKind) -> Generator:
        """Sim process: deploy one idle Node.js environment of ``kind``.

        Used by the density test (deploy sequentially until memory
        saturates -> :class:`~repro.errors.OutOfMemoryError`) and the
        creation-rate test (deploy from 16 parallel workers).
        """
        costs = self.costs.linux
        self._raw_in_flight[kind] += 1
        try:
            existing = len(self.raw_instances[kind])
            if kind is InstanceKind.CONTAINER:
                duration = costs.container_create_ms(
                    existing, self._raw_in_flight[kind]
                )
                duration += CREATION_BROADCASTS * self.bridge.broadcast_cost_ms()
            elif kind is InstanceKind.MICROVM:
                duration = costs.microvm_create_ms(self._raw_in_flight[kind])
            else:
                duration = costs.process_create_ms
            yield self.env.timeout(duration)
        finally:
            self._raw_in_flight[kind] -= 1

        pages = kind.footprint_pages(costs)
        self.allocator.allocate(pages, kind.value)  # OutOfMemoryError at limit
        if kind.uses_bridge:
            self.bridge.attach()
        instance = Instance(
            kind=kind, footprint_pages=pages, created_at_ms=self.env.now
        )
        self.raw_instances[kind].append(instance)
        return instance

    def destroy_raw_instance(self, instance: Instance) -> Generator:
        """Sim process: tear down a raw instance."""
        yield self.env.timeout(instance.kind.destroy_ms(self.costs.linux))
        self.allocator.free(instance.footprint_pages, instance.kind.value)
        if instance.kind.uses_bridge:
            self.bridge.detach()
        instance.state = InstanceState.DESTROYED
        self.raw_instances[instance.kind].remove(instance)

    def memory_stats(self):
        return self.allocator.stats()

    def __repr__(self) -> str:
        return (
            f"LinuxNode(containers={self.total_containers}/"
            f"{self.config.container_cache_limit}, "
            f"stemcells={len(self.stemcells)}, stats={self.stats})"
        )
