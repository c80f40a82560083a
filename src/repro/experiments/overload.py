"""Overload — goodput beyond capacity (extension beyond the paper).

SEUSS makes cold starts cheap enough to absorb bursts, but a burst that
*stays* above capacity is a different failure mode: with deadlines
attached and nothing else, clients give up while nodes keep burning
cores on answers nobody will read (zombies), and goodput collapses just
as offered load peaks.  This experiment sweeps offered load from 0.5x
to 3x of cluster capacity over open-loop (Poisson) arrivals and
contrasts two arms at every point:

* ``naive`` — deadlines are attached and tracked, nothing more: no
  cancellation, unbounded node queues, no admission control.
* ``ctrl`` — the full overload control plane from
  :mod:`repro.faas.overload`: expired work is cancelled between stages,
  per-node admission queues bound outstanding work and shed the
  overflow (deadline-aware drop-expired policy), queue depth steers the
  router toward the least-loaded node, and a cluster-wide token bucket
  bounds retries.

Goodput is completed-within-deadline requests per second of offered
window; wasted work is node core time burned on cancelled or zombie
invocations.  The acceptance criterion (locked by the ``-m overload``
test) is that at >= 2x offered load the controlled arm shows strictly
higher goodput *and* a strictly lower wasted-work fraction — shedding
early and killing expired work beats politely finishing it.

A chaos variant reruns the 2x point with the chaos experiment's fault
plan, retries and breakers installed, demonstrating that the retry
budget keeps correlated faults during overload from amplifying into a
retry storm.

Capacity is computed from the cost book, not measured: with ``cores``
single-core nodes running ``EXEC_MS`` CPU-bound functions, each core
completes one invocation per ``arg_import + exec + result_return``
milliseconds.  The function mix keeps the aggregate rate below the shim
connection's ~128 rps ceiling so overload piles up at node cores (the
resource the control plane manages), not in the shim queue.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.costs import DEFAULT_COSTS, CostBook
from repro.experiments.base import ExperimentResult, ExperimentSpec, registry
from repro.experiments.chaos import BASE_PLAN, CHAOS_BREAKER, CHAOS_RETRIES
from repro.faas.cluster import FaasCluster
from repro.faas.overload import OverloadConfig, ShedPolicy
from repro.faas.records import FunctionSpec
from repro.metrics.collector import LatencyRecorder
from repro.metrics.resilience import ResilienceReport, goodput_per_sec
from repro.seuss.config import SeussConfig
from repro.seuss.node import SeussNode
from repro.sim import Environment
from repro.workload.functions import cpu_bound_function
from repro.workload.traces import poisson_window, replay_trace

#: CPU-bound body long enough that a core is a contended resource.
EXEC_MS = 50.0
#: Logically distinct functions in the mix (kept small so the working
#: set is warm after one pass and cold starts do not dominate).
FUNCTION_COUNT = 4
#: Two single-core nodes: small enough that the swept multiples stay
#: under the shim ceiling, plural so backpressure routing matters.
NODE_COUNT = 2
CORES_PER_NODE = 1
#: Client deadline; comfortably above the warm end-to-end latency
#: (~270 ms: control plane + shim + 50 ms exec) so it only bites when
#: queueing delay is the cause.
DEADLINE_MS = 500.0
#: Queued invocations each node may hold beyond its running set.
QUEUE_DEPTH = 4
#: Cluster-wide retry allowance (10% of admissions).
RETRY_BUDGET_FRACTION = 0.1

#: The naive arm: deadlines attached and tracked, nothing controlled.
NAIVE = OverloadConfig(deadline_ms=DEADLINE_MS)
#: The controlled arm: the full overload control plane.
CONTROLLED = OverloadConfig(
    deadline_ms=DEADLINE_MS,
    cancel_expired=True,
    queue_depth=QUEUE_DEPTH,
    shed_policy=ShedPolicy.DROP_EXPIRED,
    retry_budget_fraction=RETRY_BUDGET_FRACTION,
)

DEFAULT_MULTIPLES = (0.5, 1.0, 2.0, 3.0)
DEFAULT_DURATION_MS = 2000.0
#: The offered-load point the chaos variant and acceptance test use.
ACCEPTANCE_MULTIPLE = 2.0


def cluster_capacity_rps(costs: CostBook = DEFAULT_COSTS) -> float:
    """Ideal completions/s: every core busy, zero queueing."""
    service_ms = (
        costs.seuss.arg_import_ms + EXEC_MS + costs.seuss.result_return_ms
    )
    return NODE_COUNT * CORES_PER_NODE * 1000.0 / service_ms


def _overload_functions() -> List[FunctionSpec]:
    return [
        cpu_bound_function(f"overload-{index}", owner="overload", exec_ms=EXEC_MS)
        for index in range(FUNCTION_COUNT)
    ]


def run_overload_trial(
    multiple: float,
    duration_ms: float = DEFAULT_DURATION_MS,
    controlled: bool = False,
    chaos: bool = False,
    seed: int = 0x10AD,
) -> "tuple[LatencyRecorder, ResilienceReport, float]":
    """One open-loop trial at ``multiple`` x capacity.

    Returns the recorder of client-visible results for the measured
    window, the cluster's resilience report (shed / cancelled / zombie
    / wasted-work counters), and the elapsed milliseconds from the
    first arrival until the last client finished (the goodput
    denominator — it includes the drain, so goodput can never exceed
    what the cores physically completed per second).
    """
    env = Environment()
    config = SeussConfig(cores=CORES_PER_NODE)
    extras = {}
    if chaos:
        extras = dict(
            faults=BASE_PLAN,
            retries=CHAOS_RETRIES,
            breaker=CHAOS_BREAKER,
        )
    cluster = FaasCluster.with_seuss_node(
        env,
        config=config,
        overload=CONTROLLED if controlled else NAIVE,
        **extras,
    )
    for _ in range(NODE_COUNT - 1):
        node = SeussNode(env, config=config, costs=cluster.costs)
        node.initialize_sync()
        cluster.add_node(node)
    functions = _overload_functions()
    # Warmup (unrecorded): one sequential pass so snapshots exist and
    # the measured window contends on cores, not on first-touch colds.
    for fn in functions:
        env.run(until=cluster.invoke(fn))
    rate_per_s = multiple * cluster_capacity_rps(cluster.costs)
    rng = random.Random(seed)
    started_ms = env.now
    times, function_ids = poisson_window(
        rng,
        lambda: rng.randrange(FUNCTION_COUNT),
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


def run_overload(
    multiples: Sequence[float] = DEFAULT_MULTIPLES,
    duration_ms: float = DEFAULT_DURATION_MS,
    chaos: bool = True,
    seed: int = 0x10AD,
) -> ExperimentResult:
    capacity = cluster_capacity_rps()
    result = ExperimentResult(
        experiment_id="overload",
        title="Goodput under overload (naive vs controlled)",
        headers=[
            "offered",
            "arm",
            "goodput/s",
            "% capacity",
            "p99 ms",
            "shed",
            "cancelled",
            "zombies",
            "wasted %",
        ],
    )
    reports = {}
    recorders = {}
    aggregates = {}

    def add_row(label, arm, recorder, report, elapsed_ms):
        goodput = goodput_per_sec(recorder.results, elapsed_ms)
        summary = recorder.summary()
        result.add_row(
            label,
            arm,
            round(goodput, 2),
            round(goodput * 100.0 / capacity, 1),
            round(summary.p99, 2),
            report.shed,
            report.cancelled,
            report.zombies,
            round(report.wasted_work_fraction * 100.0, 1),
        )
        key = f"{label} {arm}"
        reports[key] = report
        recorders[key] = recorder
        aggregates[key] = {
            "goodput_per_sec": goodput,
            "wasted_work_fraction": report.wasted_work_fraction,
            "elapsed_ms": elapsed_ms,
        }

    for multiple in multiples:
        label = f"{multiple:.1f}x"
        for arm, controlled in (("naive", False), ("ctrl", True)):
            recorder, report, elapsed_ms = run_overload_trial(
                multiple, duration_ms, controlled=controlled, seed=seed
            )
            add_row(label, arm, recorder, report, elapsed_ms)

    if chaos:
        label = f"{ACCEPTANCE_MULTIPLE:.1f}x+chaos"
        for arm, controlled in (("naive", False), ("ctrl", True)):
            recorder, report, elapsed_ms = run_overload_trial(
                ACCEPTANCE_MULTIPLE,
                duration_ms,
                controlled=controlled,
                chaos=True,
                seed=seed,
            )
            add_row(label, arm, recorder, report, elapsed_ms)

    result.raw["reports"] = reports
    result.raw["aggregates"] = aggregates
    result.add_note(
        f"open-loop Poisson arrivals for {duration_ms:.0f} ms against "
        f"{NODE_COUNT} single-core SEUSS nodes; capacity = "
        f"{capacity:.1f} req/s from the cost book "
        f"({EXEC_MS:.0f} ms CPU-bound bodies)"
    )
    result.add_note(
        f"both arms attach a {DEADLINE_MS:.0f} ms client deadline; "
        "'naive' only tracks it (node work runs to completion as a "
        "zombie), 'ctrl' adds cancellation, bounded admission queues "
        f"(depth {QUEUE_DEPTH}, {CONTROLLED.shed_policy.value}), "
        "backpressure routing and a "
        f"{RETRY_BUDGET_FRACTION:.0%} retry budget"
    )
    result.add_note(
        "goodput = requests completed within deadline per second of "
        "elapsed trial time (arrival window + drain); wasted % = node "
        "core-ms burned on cancelled or zombie work over all core-ms "
        "spent"
    )
    if chaos:
        result.add_note(
            "chaos rows rerun the 2.0x point with the chaos fault plan, "
            "retries and breakers installed — the retry budget keeps "
            "fault-triggered retries from amplifying the overload"
        )
    return result


SPEC = registry.register(
    ExperimentSpec(
        experiment_id="overload",
        title="Goodput under overload (naive vs controlled)",
        entry=run_overload,
        profiles={
            "full": {},
            "quick": {
                "multiples": (0.5, 2.0),
                "duration_ms": 1200.0,
                "chaos": False,
            },
            "smoke": {
                "multiples": (2.0,),
                "duration_ms": 400.0,
                "chaos": False,
            },
        },
        default_seed=0x10AD,
        tags=("extension", "overload", "slow"),
    )
)
