"""Keep-alive policy race: cold-start rate vs memory footprint.

Not a paper table — the policy-lab extension on the ROADMAP.  SEUSS
hard-codes its cache discipline (LRU snapshots, LIFO idle UCs); the
schedulers that came after treat keep-alive as a tunable policy — the
Azure "Serverless in the Wild" scheduler derives per-function keep-alive
and pre-warm windows from idle-time histograms, FaasCache recasts
keep-alive as greedy-dual cache replacement.  This experiment replays
one production-shaped fleet trace (:mod:`repro.workload.fleet`: diurnal
rate envelope, Zipf popularity, periodic/bursty/Poisson per-function
arrival classes) through the keep-alive lab
(:mod:`repro.workload.keepalive`) once per (policy, memory budget) pair
and tables the cold-start-rate / memory-footprint trade-off each policy
buys — same trace, same budgets, only the policy changes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.experiments.base import ExperimentResult, ExperimentSpec, registry
from repro.seuss.policy import POLICY_NAMES
from repro.workload.fleet import FleetTraceConfig, synthesize_fleet_trace
from repro.workload.keepalive import race_policies


def run_keepalive(
    functions: int = 100_000,
    duration_ms: float = 3_600_000.0,
    budgets_mb: Sequence[float] = (8_192.0, 16_384.0, 32_768.0),
    cold_start_ms: float = 150.0,
    seed: int = 0x5EED5,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="keepalive",
        title="Keep-alive policy race: cold-start rate vs memory budget",
        headers=[
            "policy",
            "budget (MB)",
            "arrivals",
            "cold rate",
            "warm rate",
            "pre-warms",
            "pre-warm hits",
            "evictions",
            "expirations",
            "avg resident (MB)",
            "peak (MB)",
        ],
    )
    trace = synthesize_fleet_trace(
        FleetTraceConfig(
            functions=functions, duration_ms=duration_ms, seed=seed
        )
    )
    class_mix = ", ".join(
        f"{name}={count}"
        for name, count in sorted(trace.class_counts().items())
    )
    result.add_note(
        f"trace: {len(trace.times_ms)} arrivals over "
        f"{duration_ms / 60_000:.0f} min, {trace.distinct_functions()} of "
        f"{functions} functions active ({class_mix}), head-100 share "
        f"{trace.head_share(100):.3f}"
    )
    #: policy -> [(budget_mb, cold_rate)] for plots/tests.
    curves: Dict[str, List[Tuple[float, float]]] = {}
    #: budget_mb -> policy -> cold_rate, for the per-budget notes.
    cold_rates: Dict[float, Dict[str, float]] = {}
    replays = race_policies(
        trace,
        POLICY_NAMES,
        [float(budget) for budget in budgets_mb],
        cold_start_ms=cold_start_ms,
    )
    for replay in replays:
        budget = replay.budget_mb
        cold_rates.setdefault(budget, {})[replay.policy] = replay.cold_rate
        curves.setdefault(replay.policy, []).append((budget, replay.cold_rate))
        result.add_row(
            replay.policy,
            int(budget),
            replay.arrivals,
            round(replay.cold_rate, 4),
            round(replay.warm_rate, 4),
            replay.prewarms,
            replay.prewarm_hits,
            replay.evictions,
            replay.expirations,
            round(replay.avg_resident_mb, 1),
            round(replay.peak_resident_mb, 1),
        )
    for budget, rates in cold_rates.items():
        best = min(rates, key=lambda name: (rates[name], name))
        lru = rates["lru"]
        if best != "lru" and lru > 0:
            saved = (lru - rates[best]) / lru
            result.add_note(
                f"at {int(budget)} MB, {best} cuts the cold-start rate "
                f"{saved:.1%} below the seed LRU discipline "
                f"({rates[best]:.4f} vs {lru:.4f})"
            )
        else:
            result.add_note(
                f"at {int(budget)} MB, the seed LRU discipline is not "
                f"beaten (cold rate {lru:.4f})"
            )
    result.raw["curves"] = curves
    result.add_note(
        "same synthesized trace and bulk-injection replay for every row; "
        "only the policy and the memory budget change"
    )
    return result


SPEC = registry.register(
    ExperimentSpec(
        experiment_id="keepalive",
        title="Keep-alive policy race: cold-start rate vs memory budget",
        entry=run_keepalive,
        profiles={
            "full": {},
            "quick": {
                "functions": 10_000,
                "duration_ms": 300_000.0,
                "budgets_mb": (2_048.0, 4_096.0),
            },
            "smoke": {
                "functions": 2_000,
                "duration_ms": 180_000.0,
                "budgets_mb": (1_024.0,),
            },
        },
        default_seed=0x5EED5,
        tags=("extension", "policy"),
    )
)
