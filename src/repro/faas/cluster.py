"""Cluster wiring: the four-machine OpenWhisk testbed in one object.

:class:`FaasCluster` assembles the experiment topology of §7: a control
plane (controllers + buses + registry), one or more compute nodes
(SEUSS OS or Linux), and the external HTTP server.  The two
constructors mirror the paper's two deployments — ``with_seuss_node``
routes invocations through the shim process, ``with_linux_node`` talks
to the invoker directly.

Every cluster's control plane is a
:class:`~repro.faas.sharding.ShardedControlPlane` — one shard unless
``shards`` asks for more — so every request takes the same path: hash
to a shard, route through that shard's
:class:`~repro.faas.health.NodeRouter` (per-node circuit breakers),
dispatch.  Shard 0 reuses the shim passed to the constructor.  Fault
plans, retry and breaker policies and overload control are knobs on
that one path; with healthy nodes the router and breakers are pure
bookkeeping and schedule no events.  ``replication`` (a
:class:`~repro.distributed.transfer.TransferStrategy`) adds the §9
remote-warm path: a routed node without the function's snapshot first
receives a peer's replica over the cluster interconnect.  Grow the
cluster with :meth:`FaasCluster.add_node`.
"""

from __future__ import annotations

from typing import Generator, Iterable, List, Optional, Union

from repro.costs import CostBook, DEFAULT_COSTS
from repro.distributed.transfer import TransferStrategy
from repro.faas.controller import RetryPolicy
from repro.faas.health import BreakerPolicy
from repro.faas.httpserver import ExternalHttpServer
from repro.faas.overload import OverloadConfig
from repro.faas.records import FunctionSpec, InvocationResult
from repro.faas.registry import FunctionRegistry
from repro.faas.sharding import ShardedControlPlane
from repro.faults import FaultInjector, FaultPlan
from repro.seuss.config import SeussConfig
from repro.seuss.node import SeussNode
from repro.seuss.shim import ShimProcess
from repro.sim import Environment, Process


class FaasCluster:
    """A complete FaaS deployment around one or more compute nodes."""

    def __init__(
        self,
        env: Environment,
        node,
        costs: CostBook = DEFAULT_COSTS,
        shim: Optional[ShimProcess] = None,
        functions: Iterable[FunctionSpec] = (),
        faults: Optional[Union[FaultPlan, FaultInjector]] = None,
        retries: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        overload: Optional[OverloadConfig] = None,
        shards: int = 1,
        routing: Optional[str] = None,
        replication: Optional[TransferStrategy] = None,
    ) -> None:
        self.env = env
        self.node = node
        self.costs = costs
        self.registry = FunctionRegistry(functions)
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults, env)
        self.fault_injector: Optional[FaultInjector] = faults
        self.shim = shim
        self.external_server = ExternalHttpServer(env)
        self._inject_faults(node)
        self.control_plane = ShardedControlPlane(
            env,
            [node],
            costs=costs,
            shards=shards,
            routing=routing or "round_robin",
            shim_factory=(
                (lambda sid: shim if sid == 0 else ShimProcess(env, costs.platform))
                if shim is not None
                else None
            ),
            retries=retries,
            breaker=breaker,
            overload=overload,
            injector=self.fault_injector,
            replication=replication,
        )
        #: Shard 0's controller, for single-controller call sites;
        #: aggregate counters live on ``control_plane``.
        self.controller = self.control_plane.shards[0].controller

    # -- node membership -------------------------------------------------
    def _inject_faults(self, node) -> None:
        if self.fault_injector is not None and hasattr(node, "fault_injector"):
            node.fault_injector = self.fault_injector

    def add_node(self, node) -> None:
        """Join an initialized compute node to every shard's rotation."""
        self._inject_faults(node)
        self.control_plane.add_node(node)

    @property
    def nodes(self) -> list:
        return list(self.control_plane.nodes)

    # -- constructors ----------------------------------------------------
    @classmethod
    def with_seuss_node(
        cls,
        env: Environment,
        config: Optional[SeussConfig] = None,
        costs: CostBook = DEFAULT_COSTS,
        functions: Iterable[FunctionSpec] = (),
        faults: Optional[Union[FaultPlan, FaultInjector]] = None,
        retries: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        overload: Optional[OverloadConfig] = None,
        shards: int = 1,
        routing: Optional[str] = None,
        replication: Optional[TransferStrategy] = None,
    ) -> "FaasCluster":
        """OpenWhisk with the SEUSS OS VM behind the shim process."""
        node = SeussNode(env, config=config, costs=costs)
        node.initialize_sync()
        shim = ShimProcess(env, costs.platform)
        return cls(
            env,
            node,
            costs=costs,
            shim=shim,
            functions=functions,
            faults=faults,
            retries=retries,
            breaker=breaker,
            overload=overload,
            shards=shards,
            routing=routing,
            replication=replication,
        )

    @classmethod
    def with_linux_node(
        cls,
        env: Environment,
        config=None,
        costs: CostBook = DEFAULT_COSTS,
        functions: Iterable[FunctionSpec] = (),
        faults: Optional[Union[FaultPlan, FaultInjector]] = None,
        retries: Optional[RetryPolicy] = None,
        breaker: Optional[BreakerPolicy] = None,
        overload: Optional[OverloadConfig] = None,
        shards: int = 1,
        routing: Optional[str] = None,
    ) -> "FaasCluster":
        """Stock OpenWhisk: Linux + Docker compute node, no shim."""
        from repro.linuxnode.node import LinuxNode

        node = LinuxNode(env, config=config, costs=costs)
        node.start_stemcell_pool()
        return cls(
            env,
            node,
            costs=costs,
            shim=None,
            functions=functions,
            faults=faults,
            retries=retries,
            breaker=breaker,
            overload=overload,
            shards=shards,
            routing=routing,
        )

    # -- client API ------------------------------------------------------
    def register(self, fn: FunctionSpec) -> None:
        self.registry.register(fn)

    def invoke_by_key(self, key: str) -> Process:
        """Start a client invocation of a registered function."""
        return self.invoke(self.registry.get(key))

    def invoke(self, fn: FunctionSpec) -> Process:
        """Start a client invocation of ``fn`` directly."""
        return self.control_plane.invoke(fn)

    def invoke_batch(self, fns: Iterable[FunctionSpec]) -> List[Process]:
        """Start a same-tick volley sharing one dispatch tick per shard."""
        return self.control_plane.invoke_batch(fns)

    def invoke_sync(self, fn: FunctionSpec) -> InvocationResult:
        """Invoke and drive the simulation until the result is ready."""
        return self.env.run(until=self.invoke(fn))

    def client_invoke(self, fn: FunctionSpec) -> Generator:
        """Generator form for embedding in caller processes."""
        result = yield self.invoke(fn)
        return result
