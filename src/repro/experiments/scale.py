"""Scale — the sharded control plane (extension beyond the paper).

The paper's testbed runs one controller in front of one SEUSS node, and
Table 3 pins the control plane's serial bottleneck: one shim TCP
connection sustains ~128 req/s no matter how many cores sit behind it.
This experiment measures what the :mod:`repro.faas.sharding` control
plane buys at fleet scale, sweeping node count x shard count x offered
rate over a Zipf-skewed function popularity mix (a handful of hot
functions, a long cold tail — the shape production FaaS traces report):

* **Throughput** — every controller shard owns its own shim connection,
  so the req/s ceiling should scale with the shard count until node
  cores saturate.  One shard is the paper's wiring and pins the wall;
  2/4 shards should climb past it at offered rates above ~128 req/s.
* **Locality** — ``snapshot_affinity`` routing steers each function to
  a node that already holds its snapshot / working set, turning
  would-be colds into warms; ``round_robin`` sprays blindly.  The
  report's locality hit rate quantifies how often affinity finds a
  holder (the ``-m scale`` test pins >= 70% under the Zipf mix).

Offered load is open-loop Poisson (arrivals do not wait for
completions), so a saturated single-shard arm shows queue growth as
elapsed time stretching past the arrival window — throughput is
completions per second of *elapsed* time including the drain, which is
exactly the sustainable-rate measurement.

One unrecorded sequential warmup pass populates the snapshot caches
(round-robin across nodes, so holders are spread) before the measured
window; the measured window then contends on the control plane, which
is the subsystem under test.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.costs import DEFAULT_COSTS
from repro.experiments.base import ExperimentResult, ExperimentSpec, registry
from repro.faas.cluster import FaasCluster
from repro.faas.records import FunctionSpec
from repro.faas.routing import RoutingStats
from repro.metrics.collector import LatencyRecorder
from repro.metrics.resilience import ResilienceReport
from repro.seuss.node import SeussNode
from repro.sim import Environment
from repro.workload.functions import cpu_bound_function
from repro.workload.traces import ZipfPopularity, poisson_window, replay_trace

#: Distinct functions in the Zipf mix: enough that no node holds them
#: all (locality is earned, not free) but small enough that one warmup
#: pass covers the set.
FUNCTION_COUNT = 36
#: Zipf skew; ~1.2 matches the head-heavy popularity production FaaS
#: traces report (a few functions dominate, most are rare).
ZIPF_S = 1.2
#: Short CPU-bound bodies: node cores stay plentiful so the offered
#: rates saturate the control plane (the subsystem under test), not
#: the compute fleet.
EXEC_MS = 4.0

DEFAULT_NODE_COUNTS = (2, 4)
DEFAULT_SHARD_COUNTS = (1, 2, 4)
#: Offered req/s: one point well under the single-shim ceiling
#: (~128/s from the cost book), one well over it.
DEFAULT_RATES = (60.0, 240.0)
DEFAULT_ROUTINGS = ("round_robin", "snapshot_affinity")
DEFAULT_DURATION_MS = 2000.0


def shard_ceiling_rps() -> float:
    """One shim connection's sustainable rate, from the cost book."""
    return DEFAULT_COSTS.platform.shim_max_rate_per_s


#: The mix's popularity: rank r gets weight 1/r^s.
POPULARITY = ZipfPopularity(FUNCTION_COUNT, ZIPF_S)


def _scale_functions() -> List[FunctionSpec]:
    return [
        cpu_bound_function(f"scale-{index}", owner="scale", exec_ms=EXEC_MS)
        for index in range(FUNCTION_COUNT)
    ]


def run_scale_trial(
    node_count: int,
    shards: int,
    routing: str,
    rate_per_s: float,
    duration_ms: float = DEFAULT_DURATION_MS,
    seed: int = 0x5CA1E,
) -> "tuple[LatencyRecorder, ResilienceReport, float]":
    """One open-loop trial; returns (recorder, report, elapsed_ms)."""
    env = Environment()
    cluster = FaasCluster.with_seuss_node(
        env, shards=shards, routing=routing
    )
    for _ in range(node_count - 1):
        node = SeussNode(env, costs=cluster.costs)
        node.initialize_sync()
        cluster.add_node(node)
    functions = _scale_functions()
    # Warmup (unrecorded): one sequential pass spreads each function's
    # cold start — and therefore its snapshot — round-robin across the
    # fleet, so the measured window routes against real holder state.
    for fn in functions:
        env.run(until=cluster.invoke(fn))
    # The warmup pass is all forced locality misses (nothing holds
    # anything yet); zero the routing counters so the report scores the
    # measured window only.
    for shard in cluster.control_plane.shards:
        shard.router.stats = RoutingStats()
    rng = random.Random(seed)
    started_ms = env.now
    times, function_ids = poisson_window(
        rng,
        lambda: POPULARITY.sample(rng)[0],
        rate_per_s,
        duration_ms,
        started_ms,
    )
    recorder = LatencyRecorder()
    recorder.results.extend(
        replay_trace(cluster, functions, times, function_ids)
    )
    elapsed_ms = env.now - started_ms
    return recorder, ResilienceReport.from_cluster(cluster), elapsed_ms


def run_scale(
    node_counts: Sequence[int] = DEFAULT_NODE_COUNTS,
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    rates: Sequence[float] = DEFAULT_RATES,
    routings: Sequence[str] = DEFAULT_ROUTINGS,
    duration_ms: float = DEFAULT_DURATION_MS,
    seed: int = 0x5CA1E,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="scale",
        title="Sharded control plane: throughput and snapshot locality",
        headers=[
            "nodes",
            "shards",
            "routing",
            "offered/s",
            "tput/s",
            "locality %",
            "p50 ms",
            "p99 ms",
        ],
    )
    aggregates = {}
    for node_count in node_counts:
        for shards in shard_counts:
            for routing in routings:
                for rate in rates:
                    recorder, report, elapsed_ms = run_scale_trial(
                        node_count,
                        shards,
                        routing,
                        rate,
                        duration_ms=duration_ms,
                        seed=seed,
                    )
                    completed = sum(
                        1 for r in recorder.results if r.success
                    )
                    throughput = (
                        completed * 1000.0 / elapsed_ms if elapsed_ms else 0.0
                    )
                    summary = recorder.summary()
                    result.add_row(
                        node_count,
                        shards,
                        routing,
                        round(rate, 1),
                        round(throughput, 1),
                        round(report.locality_hit_rate * 100.0, 1),
                        round(summary.p50, 2),
                        round(summary.p99, 2),
                    )
                    key = (node_count, shards, routing, rate)
                    aggregates[key] = {
                        "throughput_per_sec": throughput,
                        "locality_hit_rate": report.locality_hit_rate,
                        "spills": report.spills,
                        "shard_dispatch": dict(report.shard_dispatch),
                        "elapsed_ms": elapsed_ms,
                        "p99_ms": summary.p99,
                    }
    result.raw["aggregates"] = aggregates
    result.add_note(
        f"open-loop Poisson arrivals for {duration_ms:.0f} ms over "
        f"{FUNCTION_COUNT} functions with Zipf(s={ZIPF_S}) popularity; "
        f"{EXEC_MS:.0f} ms CPU-bound bodies keep cores plentiful so the "
        "control plane is the contended resource"
    )
    result.add_note(
        "tput/s = completions per second of elapsed time (arrival window "
        "+ drain): a single shard pins the paper's one-shim ceiling "
        f"(~{shard_ceiling_rps():.0f} req/s from the cost book), each "
        "extra shard adds its own shim connection"
    )
    result.add_note(
        "locality % = affinity decisions that landed on a node already "
        "holding the function's snapshot/working set (0 under "
        "round_robin, which never consults holder state)"
    )
    return result


SPEC = registry.register(
    ExperimentSpec(
        experiment_id="scale",
        title="Sharded control plane: throughput and snapshot locality",
        entry=run_scale,
        profiles={
            "full": {},
            "quick": {
                "node_counts": (4,),
                "shard_counts": (1, 4),
                "rates": (240.0,),
                "duration_ms": 600.0,
            },
            "smoke": {
                "node_counts": (2,),
                "shard_counts": (1, 2),
                "rates": (150.0,),
                "routings": ("snapshot_affinity",),
                "duration_ms": 250.0,
            },
        },
        default_seed=0x5CA1E,
        tags=("extension", "scale", "slow"),
    )
)
