"""The SEUSS OS compute node.

:class:`SeussNode` ties the pieces together the way Figure 2 does: at
initialization it boots one UC per supported runtime, applies the
configured anticipatory optimizations, and captures the **base runtime
snapshot** ("relatively large in memory use but there are few of them:
only one per supported interpreter").  After that every invocation is
served by :func:`repro.seuss.invoker.invoke_on_node` through one of the
cold / warm / hot paths, and the OOM daemon keeps memory pressure in
check by reclaiming idle UCs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Optional

from repro.costs import CostBook, DEFAULT_COSTS
from repro.errors import ConfigError
from repro.faas.records import (
    FunctionSpec,
    InvocationLedger,
    NodeInvocation,
    PathCounts,
)
from repro.mem.frames import FrameAllocator, node_allocator
from repro.mem.snapshot import Snapshot
from repro.mem.workingset import WorkingSetRegistry
from repro.seuss.ao import AOReport, apply_anticipatory_optimizations
from repro.seuss.config import AOLevel, SeussConfig
from repro.seuss.idle_pool import IdlePool
from repro.seuss.invoker import invoke_on_node
from repro.seuss.policy import make_policy
from repro.seuss.snapshots import SnapshotCache
from repro.sim import Environment, Process, Resource
from repro.trace import tracer_for
from repro.unikernel.context import UnikernelContext
from repro.unikernel.interpreters import RuntimeSpec, get_runtime
from repro.unikernel.rumprun import boot_stages
from repro.units import mb_to_pages


@dataclass
class RuntimeRecord:
    """One supported interpreter: its spec, base snapshot, and AO state."""

    runtime: RuntimeSpec
    snapshot: Snapshot
    ao_level: AOLevel
    ao_report: AOReport
    boot_ms: float


#: Per-path invocation tallies (shared shape with the Linux node).
NodeStats = PathCounts


class SeussNode:
    """A FaaS compute node running the SEUSS OS prototype."""

    def __init__(
        self,
        env: Environment,
        config: Optional[SeussConfig] = None,
        costs: CostBook = DEFAULT_COSTS,
    ) -> None:
        self.env = env
        self.config = config or SeussConfig()
        self.costs = costs
        self.allocator: FrameAllocator = node_allocator(
            self.config.memory_gb, self.config.system_reserved_mb, env
        )
        self.allocator.pressure_threshold_pages = mb_to_pages(
            self.config.oom_threshold_mb
        )
        self.cores = Resource(env, self.config.cores)
        #: The caches' eviction orders (one policy per cache so their key
        #: spaces stay disjoint).
        self.cache_policy = make_policy(self.config.cache_policy, env=env)
        self.uc_policy = make_policy(self.config.cache_policy, env=env)
        self.uc_cache = IdlePool(
            self.config.idle_ucs_per_function,
            policy=self.uc_policy,
            env=env,
            unit="uc",
        )
        self.snapshot_cache = SnapshotCache(
            self.config.snapshot_cache_budget_mb,
            drop_idle=self.uc_cache.drop_function,
            policy=self.cache_policy,
            env=env,
        )
        # The trivial OOM daemon: reclaim idle UCs under pressure (§6).
        self.allocator.add_reclaim_hook(self.uc_cache.reclaim_pages)
        #: Content-addressed page dedup (``mem/dedup.py``); ``None``
        #: unless the config opts in, keeping the default node's
        #: capture path untouched.
        self.dedup = None
        if self.config.page_dedup or self.config.dedup_scanner:
            from repro.mem.dedup import DedupConfig, DedupDomain

            self.dedup = DedupDomain(
                self.allocator,
                DedupConfig(
                    capture=self.config.page_dedup,
                    scope=self.config.dedup_scope,
                    duplicate_fraction=self.config.dedup_duplicate_fraction,
                    scanner=self.config.dedup_scanner,
                    scan_rate_pages_per_s=(
                        self.config.dedup_scan_rate_pages_per_s
                    ),
                ),
                env=env,
            )
            self.dedup.start_scanner()
        #: Recorded first-invocation working sets, keyed like snapshots
        #: (``runtime:<name>`` for the cold path, ``fn.key`` for warm).
        self.working_sets = WorkingSetRegistry()
        # Per-core network proxies (§6 "Networking").
        from repro.net.proxy import NodeNetwork

        self.network = NodeNetwork(self.config.cores)
        self._runtimes: Dict[str, RuntimeRecord] = {}
        self.stats = NodeStats()
        self.initialized = False
        #: Optional :class:`repro.faults.FaultInjector`; installed by the
        #: cluster when a fault plan is active, ``None`` otherwise.
        self.fault_injector = None
        #: The cluster's :class:`~repro.distributed.replicas.ReplicaFetcher`
        #: when it replicates snapshots (set by the fetcher); ``None``
        #: never ships a replica here.
        self.replicas = None
        self.crashed = False
        self.crash_count = 0
        self.restart_count = 0
        #: Overload-control accounting: invocations cancelled mid-flight,
        #: zombies that completed after their client's deadline, and the
        #: node core time both burned for nothing.  All stay zero unless
        #: the controller propagates deadlines.
        self.cancelled_count = 0
        self.zombie_count = 0
        self.wasted_ms = 0.0
        #: Core time spent on completions somebody received (the useful
        #: complement of ``wasted_ms``; denominator of the wasted-work
        #: fraction).
        self.useful_ms = 0.0

    # -- initialization ----------------------------------------------------
    def initialize(self) -> Generator:
        """Sim process: boot runtimes and capture base snapshots.

        Run with ``env.process(node.initialize())`` then
        ``env.run(until=...)``, or via :meth:`initialize_sync`.
        """
        tracer = tracer_for(self.env)
        root = tracer.span(
            "node_init",
            at=self.env.now,
            category="node",
            runtimes=list(self.config.runtimes),
        )
        try:
            for name in self.config.runtimes:
                rt_span = root.span(
                    f"boot_runtime:{name}",
                    at=self.env.now,
                    category="boot",
                    runtime=name,
                )
                runtime = get_runtime(name)
                boot_uc = UnikernelContext(
                    self.allocator,
                    runtime,
                    name=f"boot-{name}",
                    dedup=self.dedup,
                )
                boot = boot_stages(runtime, self.costs.seuss)
                rt_span.done("boot", self.env.now, self.env.now + boot.total_ms)
                yield self.env.timeout(boot.total_ms)
                boot_uc.boot()
                ao_report = apply_anticipatory_optimizations(
                    boot_uc, self.config.ao_level, self.costs.seuss
                )
                if ao_report.time_spent_ms:
                    rt_span.done(
                        "anticipatory_optimization",
                        self.env.now,
                        self.env.now + ao_report.time_spent_ms,
                        level=self.config.ao_level.value,
                    )
                    yield self.env.timeout(ao_report.time_spent_ms)
                snapshot = boot_uc.capture_snapshot(
                    f"runtime:{name}",
                    trigger_label="driver_started",
                    content_namespace=(
                        f"runtime:{name}" if self.dedup is not None else None
                    ),
                )
                capture_ms = self.costs.seuss.snapshot_capture_ms(
                    snapshot.size_mb
                )
                rt_span.done(
                    "snapshot_capture",
                    self.env.now,
                    self.env.now + capture_ms,
                    size_mb=snapshot.size_mb,
                )
                yield self.env.timeout(capture_ms)
                # The node holds the runtime snapshot for its lifetime.
                snapshot.retain()
                self._runtimes[name] = RuntimeRecord(
                    runtime=runtime,
                    snapshot=snapshot,
                    ao_level=self.config.ao_level,
                    ao_report=ao_report,
                    boot_ms=boot.total_ms,
                )
                boot_uc.destroy()
                rt_span.finish(at=self.env.now)
            self.initialized = True
        finally:
            root.finish(at=self.env.now)

    def initialize_sync(self) -> None:
        """Initialize on a fresh environment, running it to completion."""
        process = self.env.process(self.initialize())
        self.env.run(until=process)

    # -- runtime lookups ----------------------------------------------------
    def runtime_record(self, name: str) -> RuntimeRecord:
        try:
            return self._runtimes[name]
        except KeyError:
            if not self.initialized:
                raise ConfigError(
                    "node not initialized; call initialize_sync() first"
                ) from None
            raise ConfigError(
                f"runtime {name!r} not supported by this node "
                f"(have {sorted(self._runtimes)})"
            ) from None

    @property
    def runtime_records(self) -> Dict[str, RuntimeRecord]:
        return dict(self._runtimes)

    # -- crash / restart ---------------------------------------------------
    def crash(self) -> None:
        """Power-fail the node.

        All volatile state dies with it: idle UCs are gone, and the
        in-memory snapshot cache is lost (best-effort — entries pinned
        by in-flight invocations survive until those drain, like pages
        a crashing kernel had already DMA'd out).  Invocations routed
        here while down fail fast, which is what the controller's
        retry/breaker machinery is built to absorb.

        Working-set manifests deliberately survive: like REAP's
        per-snapshot working-set files they live with the snapshot
        store, not in volatile memory, so a restarted node prefetches
        from its old recordings.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crash_count += 1
        self.uc_cache.clear()
        self.snapshot_cache.clear()

    def restart(self) -> None:
        """Bring a crashed node back; caches rebuild cold from here."""
        if not self.crashed:
            return
        self.crashed = False
        self.restart_count += 1

    def crash_for(self, downtime_ms: float) -> Process:
        """Crash now and schedule the restart ``downtime_ms`` later."""

        def _reboot() -> Generator:
            yield self.env.timeout(downtime_ms)
            self.restart()

        self.crash()
        return self.env.process(_reboot())

    # -- invocation ------------------------------------------------------
    def invoke(
        self,
        fn: FunctionSpec,
        deadline_ms: Optional[float] = None,
        cancel_expired: bool = False,
    ) -> Process:
        """Start servicing an invocation; returns its sim process.

        The process's value is a
        :class:`~repro.seuss.invoker.NodeInvocation`.  ``deadline_ms``
        (absolute sim time) propagates the client's deadline so the
        invoker can account zombie completions and — with
        ``cancel_expired`` — abort between stages once it passes.
        """
        if not self.initialized:
            raise ConfigError("node not initialized; call initialize_sync() first")
        injector = self.fault_injector
        if (
            injector is not None
            and not self.crashed
            and injector.node_crashes()
        ):
            self.crash_for(injector.plan.node_restart_ms)
        if self.crashed:
            return self.env.start(self._crashed_invocation(fn))
        return self.env.start(
            invoke_on_node(
                self, fn, deadline_ms=deadline_ms, cancel_expired=cancel_expired
            )
        )

    def _crashed_invocation(self, fn: FunctionSpec) -> Generator:
        """A dead node's peer sees an immediate connection reset."""
        failed = InvocationLedger(self, fn).fail("node crashed")
        yield self.env.timeout(0.0)
        return failed

    def invoke_sync(self, fn: FunctionSpec) -> NodeInvocation:
        """Invoke and run the environment until completion (micro tests)."""
        process = self.invoke(fn)
        return self.env.run(until=process)

    # -- idle-instance deployment (Table 3 density / creation tests) --------
    def deploy_idle_instance(self, runtime_name: str = "nodejs") -> Generator:
        """Sim process: deploy one UC to its listening state and park it.

        This is the Table 3 workload: a Node.js environment "blocked on
        a port awaiting a new connection (no code has been imported
        yet)".  Returns the deployed :class:`UnikernelContext`; a deploy
        that ends any other way (interrupted, out of memory) destroys
        the UC it created, which nothing else holds.
        """
        record = self.runtime_record(runtime_name)
        core = self.cores.claim()
        uc = None
        try:
            if not core.processed:
                yield core
            uc = UnikernelContext(
                self.allocator,
                record.runtime,
                base=record.snapshot,
                dedup=self.dedup,
            )
            yield self.env.timeout(self.costs.seuss.uc_create_ms)
            uc.start_listening()
        except BaseException:
            if uc is not None:
                uc.destroy()
            raise
        finally:
            self.cores.release(core)
        return uc

    # -- distributed cache support (§9) --------------------------------------
    def install_snapshot(
        self, fn_key: str, pages, runtime_name: str = "nodejs"
    ) -> Snapshot:
        """Install a function-snapshot diff received from a peer node.

        Because all nodes of a cluster share identical runtime images
        and virtual layouts, a peer's diff pages are directly valid
        here: the replica is re-parented onto this node's own runtime
        snapshot ("cloned and deployed across machines with similar
        hardware profiles", §9).  Returns the cached snapshot.
        """
        from repro.mem.snapshot import CpuState

        record = self.runtime_record(runtime_name)
        snapshot = Snapshot(
            name=f"fn:{fn_key}:replica",
            pages=pages,
            allocator=self.allocator,
            parent=record.snapshot,
            cpu=CpuState(trigger_label="replica_installed"),
            dedup=self.dedup,
            content_namespace=(
                self.dedup.namespace(fn_key, runtime_name)
                if self.dedup is not None
                else None
            ),
        )
        if not self.snapshot_cache.put(fn_key, snapshot):
            snapshot.delete()  # raced with a local cold start
            return self.snapshot_cache.get(fn_key)
        return snapshot

    # -- introspection --------------------------------------------------
    def memory_stats(self):
        return self.allocator.stats()

    def overcommit_ratio(self) -> float:
        """Mapped virtual memory over physical memory actually held.

        COW sharing makes memory "highly overcommitted" (§6 "Memory
        Management"): every idle UC maps the full runtime image while
        privately holding only a couple of MB.  The OOM daemon is what
        makes that safe.
        """
        mapped = 0
        for _, ucs in self.uc_cache.items():
            for uc in ucs:
                mapped += uc.space.mapped_pages().page_count
        held = (
            self.allocator.category_pages("uc_private")
            + self.allocator.category_pages("uc_page_table")
        )
        if held == 0:
            return 1.0
        return mapped / held

    def __repr__(self) -> str:
        return (
            f"SeussNode(runtimes={sorted(self._runtimes)}, "
            f"snapshots={len(self.snapshot_cache)}, "
            f"idle_ucs={len(self.uc_cache)}, stats={self.stats})"
        )
