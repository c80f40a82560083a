"""One measured pass of one workload, run in its own process.

``python -m benchmarks.e2e.measure '<json args>'`` builds the workload
(timing ``builds`` set-ups), drives its timed region, checks the
outputs and prints one JSON object: metrics, checks, ``sim_digest``,
calibration and spans.  :mod:`benchmarks.e2e.run` starts one such
process per workload and pass.

Counts and simulated-time stages come from the program's public stats
objects and ``InvocationResult``\\ s after the run; host time comes
from the calibrated stopwatch and, in a sampled pass, the layer sampler.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

from benchmarks.e2e.hosttime import SLICE_S, GcMeter, LayerSampler, Spans, Stopwatch

#: The checkout's ``src`` directory, which holds the program.
SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
if SRC_DIR not in sys.path:
    sys.path.insert(0, SRC_DIR)

import repro  # noqa: E402
from repro.faas.records import InvocationPath  # noqa: E402
from repro.sim import SimulationError  # noqa: E402
from repro.units import pages_to_mb  # noqa: E402

from benchmarks.e2e.run import DEFAULT_SECONDS  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402

#: Table 1 node latencies (ms) and the tolerance the check allows.
TABLE1_MS = {"cold": 7.5, "warm": 3.5, "hot": 0.8}
TABLE1_TOLERANCE = 0.01
#: Minimum share of the expected path per closed-loop workload.
PATH_FLOORS = {
    "hot_loop": ("hot", 0.99),
    "warm_restore": ("warm", 1.0),
    "cold_sweep": ("cold", 0.85),
}
#: Samples the p99.9 tail needs beyond it at the default size.
TAIL_SAMPLES = 50
#: An open-loop send may differ from its schedule by float rounding only.
LATE_TOLERANCE_MS = 1e-6
STAGES = (
    "uc_create",
    "connect",
    "cow_faults",
    "import_compile",
    "snapshot_capture",
    "arg_import",
    "execute",
    "result_return",
)


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(count: int, q: float) -> int:
    """Samples strictly past the nearest-rank ``q`` percentile."""
    return count - max(1, math.ceil(q * count))


def sim_digest(results) -> str:
    """sha256 over every result's key, path, times and pages copied."""
    digest = hashlib.sha256()
    for r in results:
        digest.update(
            f"{r.function_key}|{r.path.value}|{r.success}|{r.sent_at_ms!r}|"
            f"{r.finished_at_ms!r}|{r.pages_copied}\n".encode()
        )
    return digest.hexdigest()


def _shims(cluster) -> list:
    if cluster.control_plane is not None:
        return [shard.controller.shim for shard in cluster.control_plane.shards]
    return [cluster.shim]


def layer_counters(cluster) -> Dict[str, float]:
    """Cumulative counters of every node, cache, shim and router."""
    totals: Dict[str, float] = {
        "node.cold": 0, "node.warm": 0, "node.total": 0,
        "snapshot.hits": 0, "snapshot.misses": 0, "snapshot.evictions": 0,
        "uc.hot_hits": 0, "uc.reclaimed": 0, "shim.busy_ms": 0.0,
        "route.hits": 0, "route.decisions": 0,
    }
    for node in cluster.nodes:
        totals["node.cold"] += node.stats.cold
        totals["node.warm"] += node.stats.warm
        totals["node.total"] += node.stats.total
        totals["snapshot.hits"] += node.snapshot_cache.stats.hits
        totals["snapshot.misses"] += node.snapshot_cache.stats.misses
        totals["snapshot.evictions"] += node.snapshot_cache.stats.evictions
        totals["uc.hot_hits"] += node.uc_cache.stats.hot_hits
        totals["uc.reclaimed"] += node.uc_cache.stats.reclaimed
    for shim in _shims(cluster):
        totals["shim.busy_ms"] += shim.stats.busy_ms
    if cluster.control_plane is not None:
        routing = cluster.control_plane.routing_stats()
        totals["route.hits"] = routing.locality_hits
        totals["route.decisions"] = routing.locality_decisions
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values) -> Optional[float]:
    values = list(values)
    return statistics.fmean(values) if values else None


def summarise(name: str, prepared, counters: Dict[str, float], start_ms: float,
              watch: Stopwatch, gc_meter: GcMeter, events: int) -> Dict[str, object]:
    """Every metric of one pass (host per-layer self times excepted)."""
    results = prepared.results
    count = len(results)
    attempted = prepared.attempted
    overheads = sorted(
        r.latency_ms - r.breakdown.get("execute", 0.0) - r.breakdown.get("io_wait", 0.0)
        if r.success else math.inf
        for r in results
    )
    successes = sum(1 for r in results if r.success)
    failures = count - successes
    paths = {p.value: 0 for p in InvocationPath}
    for r in results:
        paths[r.path.value] += 1
    window_ms = max(r.finished_at_ms for r in results) - start_ms
    gc_scaled_s = gc_meter.raw_s * _ratio(watch.scaled_s, watch.raw_s)
    per_inv_us = 1e6 / attempted
    m: Dict[str, object] = {
        "host_inv_per_s": count / watch.scaled_s,
        "overhead_p50_ms": percentile(overheads, 0.5),
        "overhead_p999_ms": percentile(overheads, 0.999),
        "goodput_per_s": successes / (window_ms / 1000.0),
        "cold_frac": paths["cold"] / attempted,
        "fail_frac": (attempted - successes) / attempted,
        "sim.host_ns_per_event": watch.scaled_s / events * 1e9,
        "gc.us_per_inv": gc_scaled_s * per_inv_us,
        "gc.gen2_collections": gc_meter.gen2_collections,
        "sim.events_per_inv": events / attempted,
        "mem.pages_copied_per_inv": sum(r.pages_copied for r in results) / attempted,
        "mem.peak_gb": pages_to_mb(max(
            node.allocator.stats().peak_pages for node in prepared.cluster.nodes
        )) / 1024.0,
        "unikernel.ucs_per_inv": (counters["node.cold"] + counters["node.warm"]) / attempted,
        "seuss.snapshot_hit_rate": _ratio(
            counters["snapshot.hits"], counters["snapshot.hits"] + counters["snapshot.misses"]
        ),
        "seuss.snapshot_evictions": counters["snapshot.evictions"],
        "seuss.idle_uc_hit_rate": _ratio(counters["uc.hot_hits"], counters["node.total"]),
        "seuss.idle_uc_reclaims": counters["uc.reclaimed"],
        "faas.attempts_per_inv": sum(r.attempts for r in results) / attempted,
        "faas.locality_hit_rate": (
            _ratio(counters["route.hits"], counters["route.decisions"])
            if prepared.cluster.control_plane is not None else None
        ),
        "faas.shim_util": counters["shim.busy_ms"] / (len(_shims(prepared.cluster)) * window_ms),
    }
    node_ms = {}
    for path in ("cold", "warm", "hot"):
        node_ms[path] = _mean(r.node_latency_ms for r in results if r.success and r.path.value == path)
        m[f"seuss.{path}_node_ms"] = node_ms[path]
    if WORKLOADS[name].nop_only:
        m["seuss.table1_err_pct"] = max(
            abs(value / TABLE1_MS[path] - 1.0) * 100.0
            for path, value in node_ms.items() if value is not None
        )
    else:
        m["seuss.table1_err_pct"] = None
    ok = [r for r in results if r.success]
    m["seuss.core_wait_ms"] = _mean(
        r.node_latency_ms - sum(r.breakdown.values()) for r in ok
    )
    for stage in STAGES:
        m[f"seuss.stage.{stage}_ms"] = _mean(r.breakdown.get(stage, 0.0) for r in ok)
    m["faas.control_ms"] = _mean(r.latency_ms - r.node_latency_ms for r in ok)
    return {
        "metrics": m,
        "paths": paths,
        "failed": failures + (attempted - count),
        "overhead_samples": count,
        "overhead_p999_beyond": beyond(count, 0.999),
        "node_ms": node_ms,
    }


def run_checks(name: str, prepared, summary: dict, seconds: float) -> List[dict]:
    """Output checks; any failure makes the run incorrect."""
    results = prepared.results
    attempted = prepared.attempted
    checks = []

    def check(label: str, ok: bool, detail: str) -> None:
        checks.append({"name": label, "ok": bool(ok), "detail": detail})

    ids = {r.request_id for r in results}
    check(
        "one_result_per_request",
        len(results) == attempted and len(ids) == attempted,
        f"{len(results)} results, {len(ids)} distinct ids, {attempted} issued",
    )
    paths = summary["paths"]
    if name in PATH_FLOORS:
        path, floor = PATH_FLOORS[name]
        share = paths[path] / attempted
        check(f"{path}_share", share >= floor, f"{share:.4f} (floor {floor})")
        check("no_failures", summary["failed"] == 0, f"{summary['failed']} failed")
    if prepared.due_ms is not None:
        ordered = sorted(results, key=lambda r: r.request_id)
        late = max(
            (abs(r.sent_at_ms - due) for r, due in zip(ordered, prepared.due_ms)),
            default=0.0,
        )
        check(
            "sent_on_schedule",
            len(ordered) == len(prepared.due_ms) and late <= LATE_TOLERANCE_MS,
            f"max |sent - due| = {late:.3g} ms",
        )
    if WORKLOADS[name].nop_only:
        for path, value in summary["node_ms"].items():
            if value is not None:
                err = abs(value / TABLE1_MS[path] - 1.0)
                check(
                    f"table1_{path}",
                    err <= TABLE1_TOLERANCE,
                    f"mean node latency {value:.4f} ms vs {TABLE1_MS[path]} ms",
                )
    if seconds >= DEFAULT_SECONDS:
        check(
            "tail_samples",
            summary["overhead_p999_beyond"] >= TAIL_SAMPLES,
            f"{summary['overhead_p999_beyond']} samples beyond p99.9",
        )
    return checks


def drive(env, done, watch: Stopwatch, sampler: Optional[LayerSampler] = None) -> int:
    """Run ``env`` until ``done`` is processed, in calibrated host slices.

    A slice is ``env.run(until=done, limit=n)``: the engine's own loop,
    paused after ``n`` events, with ``n`` adapted so a slice takes about
    ``SLICE_S`` host seconds.  It stops at ``done`` exactly like
    ``env.run(until=done)``, so the simulation is identical.  The
    sampler, if any, records only inside slices.  Returns the slice count.
    """
    events = 2_000
    rate = watch.spin()
    slices = 0
    while not done.processed:
        if sampler is not None:
            sampler.resume()
        started = time.perf_counter()
        try:
            env.run(until=done, limit=events)
        except SimulationError:
            if env.peek() == math.inf:
                raise RuntimeError("event queue drained before the workload finished")
        elapsed = time.perf_counter() - started
        if sampler is not None:
            sampler.pause()
        after = watch.spin()
        watch.add(elapsed, rate, after)
        rate = after
        slices += 1
        events = max(1, round(events * min(4.0, max(0.25, SLICE_S / max(elapsed, 1e-4)))))
    return slices


def drive_plain(env, done, watch: Stopwatch) -> int:
    """Reference drive: one ``env.run(until=done)`` between two spins."""
    watch.time(lambda: env.run(until=done))
    return 1


def run_pass(name: str, seed: int, seconds: float, builds: int = 5,
             sampled: bool = False, sliced: bool = True) -> dict:
    """Build ``name`` ``builds`` times, drive the last build, measure it."""
    workload = WORKLOADS[name]
    spans = Spans()
    setup_watch = Stopwatch()
    setups: List[float] = []
    prepared = None
    with spans.span(f"workload:{name}", "bench"):
        for _ in range(builds):
            prepared = None
            gc.collect()
            with spans.span("setup", "bench"):
                prepared, scaled = setup_watch.time(
                    lambda: workload.build(workload, seed, seconds, spans)
                )
            setups.append(scaled)
        env = prepared.env
        before = layer_counters(prepared.cluster)
        watch = Stopwatch()
        sampler = (
            LayerSampler(os.path.dirname(repro.__file__), BENCH_DIR) if sampled else None
        )
        with spans.span("timed_run", "sim"), GcMeter() as gc_meter:
            start_ms = env.now
            events_before = env.events_processed
            done = prepared.start()
            if sampler is not None:
                with sampler:
                    slices = drive(env, done, watch, sampler=sampler)
            elif sliced:
                slices = drive(env, done, watch)
            else:
                slices = drive_plain(env, done, watch)
            events = env.events_processed - events_before
        with spans.span("summarise", "metrics"):
            after = layer_counters(prepared.cluster)
            counters = {key: after[key] - before[key] for key in after}
            summary = summarise(name, prepared, counters, start_ms, watch, gc_meter, events)
            checks = run_checks(name, prepared, summary, seconds)
            digest = sim_digest(prepared.results)
    metrics = summary["metrics"]
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "attempted": prepared.attempted,
        "failed": summary["failed"],
        "correct": all(c["ok"] for c in checks),
        "checks": checks,
        "sim_digest": digest,
        "paths": summary["paths"],
        "overhead_samples": summary["overhead_samples"],
        "overhead_p999_beyond": summary["overhead_p999_beyond"],
        "metrics": metrics,
        "timed_raw_s": watch.raw_s,
        "timed_scaled_s": watch.scaled_s,
        "slices": slices,
        "setup_scaled_s": setups,
        "calibration": watch.calibration(),
        "samples": dict(sampler.counts) if sampler is not None else None,
        "spans": spans.records,
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = json.loads((argv if argv is not None else sys.argv[1:])[0])
    result = run_pass(**args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
