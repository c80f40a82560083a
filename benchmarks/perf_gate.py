"""Hot-path microbenchmark suite and CI perf-regression gate.

Measures the substrate loops SEUSS leans on — interval algebra,
snapshot-stack lookups, COW fault storms, snapshot capture/deploy churn,
UC deploy/run/destroy churn, cache eviction churn, raw event-loop
throughput and full-stack hot invocations — and gates
CI on a checked-in baseline (:data:`BASELINE_PATH`).

Wall-clock microbenchmarks are host-sensitive, so every run first times
a fixed pure-Python calibration loop and reports each benchmark as a
*score*: benchmark throughput divided by calibration throughput.  The
score is (approximately) host-invariant — it answers "how many units of
benchmark work fit in one unit of generic interpreter work" — which is
what lets a laptop-recorded baseline gate a CI runner.

Usage::

    python -m benchmarks.perf_gate                 # print the table
    python -m benchmarks.perf_gate --out FILE      # also write JSON
    python -m benchmarks.perf_gate --check         # gate vs baseline
    python -m benchmarks.perf_gate --update-baseline

``--check`` exits non-zero if any benchmark's score regressed more than
:data:`REGRESSION_TOLERANCE` (default 25%) below the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Committed baseline the CI gate compares against.
BASELINE_PATH = os.path.join(os.path.dirname(__file__), "perf_baseline.json")

#: A benchmark fails the gate when its score drops below
#: ``baseline * (1 - REGRESSION_TOLERANCE)``.
REGRESSION_TOLERANCE = 0.25

#: Artifact schema; bump on breaking changes.
GATE_SCHEMA_VERSION = 1


# -- workload builders -----------------------------------------------------
def _fragmented_intervals(seed: int, extents: int, span: int) -> List[Tuple[int, int]]:
    """Deterministic list of small disjoint intervals spread over ``span``."""
    rng = random.Random(seed)
    stride = max(span // extents, 4)
    out = []
    for index in range(extents):
        base = index * stride
        start = base + rng.randrange(stride // 2)
        stop = start + 1 + rng.randrange(max(stride // 4, 1))
        out.append((start, min(stop, base + stride)))
    return out


def bench_interval_update() -> Tuple[int, float]:
    """Bulk union of two fragmented sets (the snapshot-stack union loop).

    Operands are built outside the timed loop; each round copies the
    left operand (cheap list copies) and merges the right one in, so
    the measurement is the ``update`` itself.
    """
    from repro.mem.intervals import IntervalSet

    left = IntervalSet(_fragmented_intervals(seed=1, extents=600, span=120_000))
    right = IntervalSet(_fragmented_intervals(seed=2, extents=600, span=120_000))
    rounds = 300
    started = time.perf_counter()
    for _ in range(rounds):
        out = left.copy()
        out.update(right)
        assert out.page_count > 0
    elapsed = time.perf_counter() - started
    return rounds, elapsed


def bench_interval_difference() -> Tuple[int, float]:
    """Bulk subtraction (the read-path "stack minus private" computation)."""
    from repro.mem.intervals import IntervalSet

    base = IntervalSet(_fragmented_intervals(seed=3, extents=600, span=120_000))
    cut = IntervalSet(_fragmented_intervals(seed=4, extents=600, span=120_000))
    rounds = 300
    started = time.perf_counter()
    for _ in range(rounds):
        out = base.difference(cut)
        assert out.page_count >= 0
    elapsed = time.perf_counter() - started
    return rounds, elapsed


def bench_interval_intersection() -> Tuple[int, float]:
    """Bulk intersection (overlap accounting for dedup/KSM-style scans)."""
    from repro.mem.intervals import IntervalSet

    left = IntervalSet(_fragmented_intervals(seed=5, extents=600, span=120_000))
    right = IntervalSet(_fragmented_intervals(seed=6, extents=600, span=120_000))
    rounds = 300
    started = time.perf_counter()
    for _ in range(rounds):
        out = left.intersection(right)
        assert out.page_count >= 0
    elapsed = time.perf_counter() - started
    return rounds, elapsed


def bench_snapshot_stack_read() -> Tuple[int, float]:
    """Reads resolving through a deep snapshot stack (the hot-read path)."""
    from repro.mem.address_space import AddressSpace
    from repro.mem.frames import FrameAllocator

    allocator = FrameAllocator(4_000_000)
    space = AddressSpace(allocator, name="bench")
    rng = random.Random(7)
    # Build an 8-deep stack of scattered diffs, like a warm function's
    # base -> runtime -> function -> argument snapshot lineage.
    for _layer in range(8):
        for _extent in range(40):
            start = rng.randrange(100_000)
            space.write(start, 1 + rng.randrange(16))
        space.capture_snapshot(f"layer{_layer}")
    probes = [(rng.randrange(100_000), 1 + rng.randrange(64)) for _ in range(400)]
    rounds = 40
    started = time.perf_counter()
    for _ in range(rounds):
        for start, npages in probes:
            space.read(start, npages)
    elapsed = time.perf_counter() - started
    reads = rounds * len(probes)
    space.destroy()
    return reads, elapsed


def bench_cow_fault_storm() -> Tuple[int, float]:
    """Scattered first-touch writes: the cold-start COW fault burst."""
    from repro.mem.address_space import AddressSpace
    from repro.mem.frames import FrameAllocator

    rng = random.Random(8)
    writes = [(rng.randrange(200_000), 1 + rng.randrange(8)) for _ in range(3000)]
    rounds = 12
    started = time.perf_counter()
    total = 0
    for _ in range(rounds):
        allocator = FrameAllocator(8_000_000)
        space = AddressSpace(allocator, name="storm")
        for start, npages in writes:
            space.write(start, npages)
        total += len(writes)
        space.destroy()
    elapsed = time.perf_counter() - started
    return total, elapsed


def bench_snapshot_churn() -> Tuple[int, float]:
    """Capture/deploy cycles: dirty a working set, snapshot, redeploy."""
    from repro.mem.address_space import AddressSpace
    from repro.mem.frames import FrameAllocator
    from repro.mem.snapshot import Snapshot

    rng = random.Random(9)
    dirty_sets = [
        [(rng.randrange(50_000), 1 + rng.randrange(32)) for _ in range(60)]
        for _ in range(20)
    ]
    cycles = 0
    rounds = 10
    started = time.perf_counter()
    for _ in range(rounds):
        allocator = FrameAllocator(8_000_000)
        parent = AddressSpace(allocator, name="parent")
        snapshot: Optional[Snapshot] = None
        for writes in dirty_sets:
            for start, npages in writes:
                parent.write(start, npages)
            snapshot = parent.capture_snapshot(f"gen{cycles}")
            child = AddressSpace(allocator, base=snapshot, name="child")
            child.read(0, 2048)
            child.write(0, 16)
            child.destroy()
            cycles += 1
        parent.destroy()
    elapsed = time.perf_counter() - started
    return cycles, elapsed


def bench_uc_lifecycle() -> Tuple[int, float]:
    """Warm-deploy UC churn: the UC work of the warm path, without the
    engine or the cost model.

    One initialized node with one cached NOP function snapshot.  Each
    round builds a UC from that snapshot, listens, maps its channel,
    connects, restores the function, imports arguments, runs once and
    destroys the UC, which must return the node's channels and frames
    to where they started.  Ops are UCs.
    """
    from repro.seuss.node import SeussNode
    from repro.sim import Environment
    from repro.unikernel.context import UnikernelContext
    from repro.workload.functions import nop_function

    node = SeussNode(Environment())
    node.initialize_sync()
    fn = nop_function()
    node.invoke_sync(fn)
    fn_snapshot = node.snapshot_cache.get(fn.key)
    runtime = node.runtime_record(fn.runtime).runtime
    channels = node.network.active_channels
    allocated = node.allocator.allocated_pages
    ucs = 4000
    started = time.perf_counter()
    for _ in range(ucs):
        uc = UnikernelContext(node.allocator, runtime, base=fn_snapshot)
        uc.start_listening()
        node.network.connect_uc(uc)
        uc.accept_connection()
        uc.restore_function(fn.key)
        uc.import_args()
        uc.execute(38)
        uc.destroy()
    elapsed = time.perf_counter() - started
    assert node.network.active_channels == channels
    assert node.allocator.allocated_pages == allocated
    return ucs, elapsed


def bench_batched_fault_resolve() -> Tuple[int, float]:
    """Batched working-set installation: the REAP prefetch restore path.

    Deploy a space from a snapshot, then resolve a fragmented recorded
    working set in one ``resolve_batch`` call — the per-deploy unit of
    work when prefetch is enabled.  Ops are pages resolved.
    """
    from repro.mem.address_space import AddressSpace
    from repro.mem.frames import FrameAllocator
    from repro.mem.intervals import IntervalSet

    allocator = FrameAllocator(16_000_000)
    parent = AddressSpace(allocator, name="image")
    for start, stop in _fragmented_intervals(seed=10, extents=800, span=160_000):
        parent.write(start, stop - start)
    snapshot = parent.capture_snapshot("image")
    # A recorded manifest: partly stack-backed, partly fresh pages.
    manifest = IntervalSet(
        _fragmented_intervals(seed=11, extents=700, span=200_000)
    )
    rounds = 150
    pages = 0
    started = time.perf_counter()
    for _ in range(rounds):
        space = AddressSpace(allocator, base=snapshot, name="deploy")
        batch = space.resolve_batch(manifest)
        pages += batch.pages_resolved
        space.destroy()
    elapsed = time.perf_counter() - started
    parent.destroy()
    assert pages > 0
    return pages, elapsed


def bench_routing_decision() -> Tuple[int, float]:
    """Snapshot-affinity ranking over a warm fleet: the per-dispatch
    cost the sharded control plane adds on the routing hot path.

    Eight nodes, 64 functions with snapshots spread across them, mixed
    hit/miss probes — one op is one full rank + select bookkeeping.
    """
    from repro.faas.health import (
        BreakerPolicy,
        CircuitBreaker,
        NodeHealth,
        NodeRouter,
    )
    from repro.faas.routing import make_policy
    from repro.sim import Environment
    from repro.workload.functions import nop_function

    class Cache(dict):
        """A snapshot cache reduced to the read that prices a spill."""

        peek = dict.get

    class Holder:
        """A stand-in node exposing only the snapshot-cache probe."""

        def __init__(self):
            self.snapshot_cache = Cache()

    env = Environment()
    rng = random.Random(12)
    nodes = [Holder() for _ in range(8)]
    functions = [nop_function(f"bench-{i}") for i in range(64)]
    for fn in functions[:48]:  # 48 resident, 16 never-seen (cold probes)
        nodes[rng.randrange(len(nodes))].snapshot_cache[fn.key] = None
    loads = {id(node): rng.randrange(4) for node in nodes}
    router = NodeRouter(env=env)
    for node in nodes:
        router.add(NodeHealth(node, CircuitBreaker(env, BreakerPolicy())))
    router.policy = make_policy(
        "snapshot_affinity", load_of=lambda h: loads[id(h.node)]
    )
    probes = [functions[rng.randrange(len(functions))] for _ in range(500)]
    rounds = 40
    started = time.perf_counter()
    for _ in range(rounds):
        for fn in probes:
            router.select(fn)
    elapsed = time.perf_counter() - started
    assert router.stats.decisions == rounds * len(probes)
    return rounds * len(probes), elapsed


def bench_cache_churn() -> Tuple[int, float]:
    """Snapshot-cache and idle-pool churn: every eviction goes through
    the caches' default (LRU) policy.

    A snapshot cache whose budget holds eight stub snapshots serves a
    get-or-put tape over 32 functions.  One stub stays retained, like a
    snapshot a live invocation still maps, so evicting it is refused and
    requeued.  A SEUSS-shaped idle pool takes puts, hot pops and OOM
    reclaims over stub UCs of 64 functions.  Ops are cache operations.
    """
    from repro.seuss.idle_pool import IdlePool
    from repro.seuss.snapshots import SnapshotCache
    from repro.units import pages_to_mb

    class StubSnapshot:
        """A stand-in snapshot exposing only what the cache calls."""

        footprint_pages = 256
        shared_pages = 0
        _chunk_ids = ()

        def __init__(self):
            self.refcount = 0

        def retain(self):
            self.refcount += 1

        def release(self):
            self.refcount -= 1

        def delete(self):
            return self.footprint_pages

    class StubUC:
        """A stand-in idle UC exposing only what the pool calls."""

        def destroy(self):
            return 64

    rng = random.Random(14)
    snapshot_tape = [f"fn-{int(rng.paretovariate(0.8)) % 32}" for _ in range(3000)]
    uc_tape = [(rng.random(), f"fn-{rng.randrange(64)}") for _ in range(3000)]
    rounds = 20
    ops = 0
    refused = 0
    started = time.perf_counter()
    for _ in range(rounds):
        snapshots = SnapshotCache(pages_to_mb(8 * StubSnapshot.footprint_pages))
        pinned = StubSnapshot()
        pinned.retain()
        snapshots.put("fn-0", pinned)  # a rarely used function
        ops += 1
        for key in snapshot_tape:
            ops += 1
            if snapshots.get(key) is None:
                snapshots.put(key, StubSnapshot())
                ops += 1
        refused += snapshots.stats.eviction_failures
        ucs = IdlePool(per_function_limit=4)
        for roll, key in uc_tape:
            if roll < 0.5:
                ucs.put(key, StubUC())
            elif roll < 0.95:
                ucs.pop(key)
            else:
                ucs.reclaim_pages(8 * 64)
        ops += len(uc_tape)
    elapsed = time.perf_counter() - started
    assert refused > 0
    return ops, elapsed


def bench_page_dedup() -> Tuple[int, float]:
    """Refcount churn on the shared-frame table: the per-chunk cost of
    capture-time dedup (retain on snapshot, release on evict) plus the
    scanner's merge/CoW-unmerge traffic.  One op is one table call.
    """
    from repro.mem.dedup import SharedFrameTable
    from repro.mem.frames import FrameAllocator

    rng = random.Random(13)
    content_ids = [f"chunk:{i}" for i in range(256)]
    # A deterministic op tape, built outside the timed loop.
    tape = []
    for _ in range(4000):
        tape.append((rng.random(), rng.choice(content_ids)))
    rounds = 15
    ops = 0
    started = time.perf_counter()
    for _ in range(rounds):
        allocator = FrameAllocator(4_000_000)
        table = SharedFrameTable(allocator)
        for roll, content_id in tape:
            if roll < 0.40:
                table.retain(content_id, 8)
            elif roll < 0.65:
                if content_id in table:
                    table.release(content_id)
                else:
                    table.retain(content_id, 8)
            elif roll < 0.85:
                allocator.allocate(8, "private")
                table.merge(content_id, 8, "private")
            else:
                if content_id in table:
                    table.unmerge(content_id, "private")
                else:
                    table.retain(content_id, 8)
        ops += len(tape)
    elapsed = time.perf_counter() - started
    return ops, elapsed


def bench_event_loop() -> Tuple[int, float]:
    """Timeout-heavy process churn: raw engine events per second."""
    from repro.sim import Environment

    def worker(env, ticks):
        for _ in range(ticks):
            yield env.timeout(1.0)

    rounds = 6
    processes, ticks = 50, 400
    started = time.perf_counter()
    events = 0
    for _ in range(rounds):
        env = Environment()
        for _p in range(processes):
            env.process(worker(env, ticks))
        env.run()
        events += env.events_processed
    elapsed = time.perf_counter() - started
    return events, elapsed


def bench_process_handoff() -> Tuple[int, float]:
    """Process hand-off churn on the path a simulated invocation takes.

    Producers hold a slot of a contended ``Resource`` for a timeout,
    then hand an item through a ``Store`` (``put_nowait``, as the
    message bus does); consumers race each ``get`` against a client
    deadline with ``AnyOf``, leaving the losing deadline queued.  The
    queued deadline holds nothing: the fired ``AnyOf`` releases it.
    Driven by ``run(until=event)``, like the end-to-end benchmark drives
    its workloads.  Ops are engine events.
    """
    from repro.sim import Environment, Resource, Store

    def producer(env, cores, store, items):
        for item in range(items):
            request = cores.request()
            yield request
            yield env.timeout(1.0)
            cores.release(request)
            store.put_nowait(item)

    def consumer(env, store, items):
        for _ in range(items):
            yield env.any_of([store.get(), env.timeout(1e6)])

    rounds = 3
    pairs, items = 40, 150
    started = time.perf_counter()
    events = 0
    for _ in range(rounds):
        env = Environment()
        cores = Resource(env, capacity=8)
        consumers = []
        for _pair in range(pairs):
            store = Store(env)
            env.process(producer(env, cores, store, items))
            consumers.append(env.process(consumer(env, store, items)))
        env.run(until=env.all_of(consumers))
        events += env.events_processed
    elapsed = time.perf_counter() - started
    return events, elapsed


def bench_e2e_invocations() -> Tuple[int, float]:
    """Full-stack hot invocations through a warmed SEUSS cluster.

    A closed loop of 32 client processes over 64 NOP functions, all
    warmed before timing (the end-to-end benchmark's ``hot_loop``
    shape): every invocation crosses the controller, shim, bus, node and
    invoker.  At the shim's ~128.6 req/s the 10,000 invocations span
    ~78 s of simulated time, longer than the 60 s request watchdog each
    one races, so whatever a finished invocation would keep alive or
    queued for one watchdog period reaches steady state inside the
    timed region.  The collector stays on (what it walks is part of the
    cost) and runs once before timing.  Ops are invocations.
    """
    import gc

    from repro.faas import FaasCluster, InvocationPath
    from repro.metrics.collector import TrialMetrics
    from repro.sim import Environment
    from repro.workload.functions import unique_nop_set
    from repro.workload.generator import LoadGenerator, TrialConfig

    invocations = 10_000
    functions = unique_nop_set(64)
    generator = LoadGenerator(
        functions, TrialConfig(invocation_count=invocations, workers=32)
    )
    env = Environment()
    cluster = FaasCluster.with_seuss_node(env)
    for fn in functions:
        env.run(until=cluster.invoke(fn))
    metrics = TrialMetrics()
    gc.collect()
    started = time.perf_counter()
    env.run(until=env.process(generator.run_process(cluster, metrics)))
    elapsed = time.perf_counter() - started
    results = metrics.recorder.results
    assert len(results) == invocations
    assert all(result.path is InvocationPath.HOT for result in results)
    return invocations, elapsed


#: Cached fleet workload: generation (seeded RNG vectors) is untimed
#: setup and identical across repeats, so build it once per process.
_FLEET_WORKLOAD = None


def bench_million_event_fleet() -> Tuple[int, float]:
    """Fleet-scale engine churn: >1M events through ``timeout_batch``.

    A seeded Zipf-skewed arrival mix (10k functions, 400 arrivals/ms,
    exponential 250 ms service) driven through the shared open-loop
    injector — one stream of arrivals and one of pre-computed
    completions, each in 10k-entry ``timeout_batch`` epochs — over 520k
    arrivals = 1,040,004 engine events (two per arrival, plus the start
    and end of the two injector processes).  Each batch holds one heap
    slot, so two events are pending at a time; one entry per timeout
    would keep a median of 164k pending.  The committed reference for
    the per-arrival-process driver on the same workload lives in
    ``benchmarks/fleet_heap_baseline.json``.

    GC is disabled inside the timed region (and restored after): at a
    million live tracked objects the collector's generational passes
    dominate wall time and the bench would measure the allocator, not
    the engine.
    """
    import gc

    from repro.sim import Environment
    from repro.workload.fleet import FleetConfig, generate, run_batched

    global _FLEET_WORKLOAD
    if _FLEET_WORKLOAD is None:
        _FLEET_WORKLOAD = generate(FleetConfig(arrivals=520_000))
    workload = _FLEET_WORKLOAD
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        env = Environment()
        started = time.perf_counter()
        stats = run_batched(workload, env)
        elapsed = time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()
    assert stats.engine_events >= 1_000_000
    return stats.engine_events, elapsed


def bench_trace_synthesis() -> Tuple[int, float]:
    """Fleet-trace build at production scale: 100k functions, stitched
    diurnal segments, Zipf pool draw, burst clumping, timer trains and
    the final merge sort.  One op is one synthesized arrival — the
    setup cost every ``keepalive`` experiment run pays per trace.
    """
    from repro.workload.fleet import FleetTraceConfig, synthesize_fleet_trace

    config = FleetTraceConfig(
        functions=100_000, duration_ms=600_000.0, seed=0xBE9C
    )
    started = time.perf_counter()
    trace = synthesize_fleet_trace(config)
    elapsed = time.perf_counter() - started
    assert trace.arrivals > 50_000
    return trace.arrivals, elapsed


#: name -> (callable, units label).  Order is the report order.
BENCHMARKS: Dict[str, Tuple[Callable[[], Tuple[int, float]], str]] = {
    "interval_update": (bench_interval_update, "unions"),
    "interval_difference": (bench_interval_difference, "differences"),
    "interval_intersection": (bench_interval_intersection, "intersections"),
    "snapshot_stack_read": (bench_snapshot_stack_read, "reads"),
    "cow_fault_storm": (bench_cow_fault_storm, "writes"),
    "batched_fault_resolve": (bench_batched_fault_resolve, "pages"),
    "snapshot_churn": (bench_snapshot_churn, "cycles"),
    "uc_lifecycle": (bench_uc_lifecycle, "UCs"),
    "routing_decision": (bench_routing_decision, "decisions"),
    "cache_churn": (bench_cache_churn, "cache ops"),
    "page_dedup": (bench_page_dedup, "table ops"),
    "event_loop": (bench_event_loop, "events"),
    "process_handoff": (bench_process_handoff, "events"),
    # Before ``million_event_fleet``: its workload is cached at module
    # level, and every later collection would walk it too.
    "e2e_invocations": (bench_e2e_invocations, "invocations"),
    "million_event_fleet": (bench_million_event_fleet, "events"),
    "trace_synthesis": (bench_trace_synthesis, "arrivals"),
}


def calibrate(samples: int = 3) -> float:
    """Ops/s of a fixed pure-Python loop; the host-speed yardstick.

    The loop is long (~100 ms) and the median of several samples is
    used: short spins are dominated by CPU frequency transitions and
    produce 30-40% swings, which would swamp the 25% gate tolerance.
    """
    total = 1_000_000
    rates = []
    for _sample in range(samples):
        started = time.perf_counter()
        acc = 0
        for value in range(total):
            acc += value ^ (value >> 3)
        elapsed = time.perf_counter() - started
        assert acc != 0
        rates.append(total / elapsed)
    rates.sort()
    return rates[len(rates) // 2]


def run_benchmarks(repeat: int = 3) -> dict:
    """Run every benchmark ``repeat`` times, keeping the best throughput.

    Each benchmark is paired with its *own* calibration sample taken
    immediately before it runs: host speed drifts over a run (frequency
    scaling, noisy neighbours on shared boxes), so a single up-front
    yardstick would skew whichever benchmarks run while the host is
    fast or slow.
    """
    # Warm the CPU out of its idle frequency state before any timing.
    calibrate(samples=2)
    calib_samples = []
    results = {}
    for name, (func, units) in BENCHMARKS.items():
        calib = calibrate()
        calib_samples.append(calib)
        best_ops = 0.0
        best = (0, 0.0)
        for _ in range(repeat):
            work, elapsed = func()
            ops = work / elapsed if elapsed else 0.0
            if ops > best_ops:
                best_ops = ops
                best = (work, elapsed)
        results[name] = {
            "units": units,
            "work": best[0],
            "elapsed_s": round(best[1], 6),
            "ops_per_s": round(best_ops, 2),
            "calibration_ops_per_s": round(calib, 2),
            "score": round(best_ops / calib, 6),
        }
    median = sorted(calib_samples)[len(calib_samples) // 2]
    return {
        "schema_version": GATE_SCHEMA_VERSION,
        "kind": "seuss-repro-perf-gate",
        "calibration_ops_per_s": round(median, 2),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "benchmarks": results,
    }


def check_against_baseline(
    payload: dict, baseline: dict, tolerance: float = REGRESSION_TOLERANCE
) -> List[str]:
    """Return a list of failure messages (empty = gate passes)."""
    failures = []
    base_benches = baseline.get("benchmarks", {})
    for name, result in payload["benchmarks"].items():
        base = base_benches.get(name)
        if base is None:
            continue  # new benchmark: no baseline yet, cannot regress
        floor = base["score"] * (1.0 - tolerance)
        if result["score"] < floor:
            failures.append(
                f"{name}: score {result['score']:.4f} < "
                f"{floor:.4f} (baseline {base['score']:.4f} "
                f"- {tolerance:.0%} tolerance)"
            )
    for name in base_benches:
        if name not in payload["benchmarks"]:
            failures.append(f"{name}: present in baseline but not run")
    return failures


def format_table(payload: dict, baseline: Optional[dict] = None) -> str:
    lines = [
        f"{'benchmark':<24} {'ops/s':>12} {'score':>10} {'vs baseline':>12}",
        "-" * 60,
    ]
    base_benches = (baseline or {}).get("benchmarks", {})
    for name, result in payload["benchmarks"].items():
        base = base_benches.get(name)
        if base and base.get("score"):
            ratio = f"{result['score'] / base['score']:.2f}x"
        else:
            ratio = "-"
        lines.append(
            f"{name:<24} {result['ops_per_s']:>12.0f} "
            f"{result['score']:>10.4f} {ratio:>12}"
        )
    lines.append(
        f"calibration {payload['calibration_ops_per_s']:.0f} ops/s "
        f"on {payload['cpu_count']} cpu(s), python {payload['python']}"
    )
    return "\n".join(lines)


def load_baseline(path: str) -> Optional[dict]:
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Hot-path perf gate")
    parser.add_argument("--out", default=None, help="write result JSON here")
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) on >tolerance regression vs the baseline",
    )
    parser.add_argument(
        "--baseline",
        default=BASELINE_PATH,
        help=f"baseline JSON to gate against (default: {BASELINE_PATH})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=REGRESSION_TOLERANCE,
        help="allowed fractional score regression (default 0.25)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write this run's results as the new committed baseline",
    )
    parser.add_argument(
        "--repeat", type=int, default=3, help="best-of-N repeats (default 3)"
    )
    args = parser.parse_args(argv)

    payload = run_benchmarks(repeat=args.repeat)
    baseline = load_baseline(args.baseline)
    print(format_table(payload, baseline))

    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.out}")
    if args.update_baseline:
        with open(args.baseline, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"updated baseline {args.baseline}")
        return 0
    if args.check:
        if baseline is None:
            print(f"no baseline at {args.baseline}; run --update-baseline first")
            return 2
        failures = check_against_baseline(payload, baseline, args.tolerance)
        if failures:
            print("PERF GATE FAILED:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"perf gate passed ({len(payload['benchmarks'])} benchmarks)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
