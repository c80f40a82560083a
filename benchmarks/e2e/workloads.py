"""The four benchmark workloads, built only through public constructors.

Every workload uses the paper-default ``SeussConfig`` (16 cores, 88 GB,
70 GiB snapshot budget, full anticipatory optimisation) and the NOP
function shape.  Sizes scale linearly with ``seconds``, from constants
fixed so that one workload's timed region takes about ``seconds`` host
seconds on a 2-core x86 cloud VM; the simulated work at a given
``(seed, seconds)`` never depends on the host.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.faas.cluster import FaasCluster
from repro.metrics.collector import TrialMetrics
from repro.seuss.config import SeussConfig
from repro.seuss.node import SeussNode
from repro.sim import Environment
from repro.workload.fleet import FleetTraceConfig, synthesize_fleet_trace
from repro.workload.functions import nop_function, unique_nop_set
from repro.workload.generator import LoadGenerator, TrialConfig

from benchmarks.e2e.run import DEFAULT_SECONDS

#: Closed-loop client count (C) for every closed-loop workload.
CLIENTS = 32
#: Functions in the fleet trace, and the owner-namespace count they share.
FLEET_FUNCTIONS = 20_000
FLEET_OWNERS = 64
FLEET_NODES = 4
FLEET_SHARDS = 4
#: Arrivals injected per ``timeout_batch`` epoch.
FLEET_EPOCH = 10_000


@dataclass
class Prepared:
    """A built workload: the timed region starts with :meth:`start`."""

    env: Environment
    cluster: FaasCluster
    #: Requests the timed region issues.
    attempted: int
    #: Starts the timed region; returns the event that fires when every
    #: request has its result.
    start: Callable[[], object]
    #: Results, in completion order (filled while driving).
    results: List[object]
    #: Scheduled send time of every request, in issue order (open loop).
    due_ms: Optional[List[float]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Invocations issued per host second (closed loops), or simulated
    #: trace milliseconds per host second (the fleet replay).
    per_second: float
    build: Callable[["Workload", int, float, object], Prepared]
    #: Every function has the NOP body, so node latencies are Table 1's.
    nop_only: bool = True

    def invocations(self, seconds: float) -> int:
        return max(1, round(self.per_second * seconds))


def workload_seed(name: str, seed: int) -> int:
    """The workload's own seed, derived from the benchmark ``--seed``."""
    digest = hashlib.blake2b(f"{name}:{seed}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def _closed_loop(functions: int, warm_up: bool, config: SeussConfig):
    def build(workload: Workload, seed: int, seconds: float, spans) -> Prepared:
        invocations = workload.invocations(seconds)
        with spans.span("generate_inputs", "workload"):
            fns = unique_nop_set(functions)
            generator = LoadGenerator(
                fns,
                TrialConfig(
                    invocation_count=invocations,
                    workers=CLIENTS,
                    seed=workload_seed(workload.name, seed),
                ),
            )
        with spans.span("build_boot", "faas"):
            env = Environment()
            cluster = FaasCluster.with_seuss_node(env, config)
        if warm_up:
            with spans.span("warm_up", "faas"):
                for fn in fns:
                    env.run(until=cluster.invoke(fn))
        metrics = TrialMetrics()
        return Prepared(
            env=env,
            cluster=cluster,
            attempted=invocations,
            start=lambda: env.process(generator.run_process(cluster, metrics)),
            results=metrics.recorder.results,
        )

    return build


def _build_fleet(workload: Workload, seed: int, seconds: float, spans) -> Prepared:
    with spans.span("generate_inputs", "workload"):
        # The trace is one fixed input, like a recorded production trace:
        # its traffic shape (which depends on whether a Zipf-head function
        # drew the bursty class) would otherwise swing the cold share by
        # +-7% from seed to seed.  The seed decides which function name
        # and tenant each trace function is, which moves shard and node
        # placement.
        trace = synthesize_fleet_trace(
            FleetTraceConfig(
                functions=FLEET_FUNCTIONS,
                duration_ms=workload.per_second * seconds,
            )
        )
        identity = random.Random(workload_seed(workload.name, seed)).sample(
            range(FLEET_FUNCTIONS), FLEET_FUNCTIONS
        )
        fns = [
            dataclasses.replace(
                nop_function(name=f"fn{ident}", owner=f"t{ident % FLEET_OWNERS}"),
                exec_ms=trace.exec_ms[index],
            )
            for index, ident in enumerate(identity)
        ]
        arrivals = [fns[index] for index in trace.function_ids]
    with spans.span("build_boot", "faas"):
        env = Environment()
        cluster = FaasCluster.with_seuss_node(
            env, shards=FLEET_SHARDS, routing="snapshot_affinity"
        )
        for _ in range(FLEET_NODES - 1):
            node = SeussNode(env, costs=cluster.costs)
            node.initialize_sync()
            cluster.add_node(node)
    base = env.now
    due = [base + at for at in trace.times_ms]
    results: List[object] = []

    def start():
        done = env.event()
        total = len(due)
        next_fn = iter(arrivals).__next__

        def collect(process) -> None:
            results.append(process.value)
            if len(results) == total:
                done.succeed()

        def launch(event) -> None:
            cluster.invoke(next_fn()).callbacks.append(collect)

        def inject():
            for first in range(0, total, FLEET_EPOCH):
                now = env.now
                timeouts = env.timeout_batch(
                    [at - now for at in due[first:first + FLEET_EPOCH]],
                    callback=launch,
                )
                yield timeouts[-1]

        env.process(inject())
        return done

    return Prepared(
        env=env,
        cluster=cluster,
        attempted=len(due),
        start=start,
        results=results,
        due_ms=due,
    )


# Sizes: 110k / 70k / 50k invocations and a 360 s trace (~67k arrivals)
# at the default 15 s.  Each stresses a different layer mix; README.md
# maps metrics to layers and workloads.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hot_loop",
            why="closed loop C=32 over 64 warmed NOP fns, N=110k at 15 s, ~100% hot: fixed per-invocation cost of sim+faas+seuss; bypasses mem/unikernel",
            per_second=110_000 / DEFAULT_SECONDS,
            build=_closed_loop(64, warm_up=True, config=SeussConfig()),
        ),
        Workload(
            name="warm_restore",
            why="closed loop C=32 over 1,024 fns, idle UCs off, N=70k at 15 s, 100% warm: UC create, COW faults, destroy from cached snapshots (mem/unikernel read side)",
            per_second=70_000 / DEFAULT_SECONDS,
            build=_closed_loop(
                1_024, warm_up=True, config=SeussConfig(cache_idle_ucs=False)
            ),
        ),
        Workload(
            name="cold_sweep",
            why="closed loop C=32 over 262,144 fns from empty caches, N=50k at 15 s, ~92% cold: capture, insert, evict, OOM reclaim (mem/unikernel write side)",
            per_second=50_000 / DEFAULT_SECONDS,
            build=_closed_loop(262_144, warm_up=False, config=SeussConfig()),
        ),
        Workload(
            name="fleet_replay",
            why="open loop: fixed 360 s Zipf/diurnal trace (~67k arrivals, 20k fns) into 4 nodes behind 4 shards, snapshot-affinity routing: sharding, routing, deep queues",
            per_second=360_000 / DEFAULT_SECONDS,
            build=_build_fleet,
            nop_only=False,
        ),
    )
}
