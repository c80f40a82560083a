#!/usr/bin/env python3
"""Skewed production-like traffic: Zipf popularity, Poisson arrivals.

The paper's throughput trials use uniform-random invocations; real FaaS
traffic is heavily skewed — a few hot functions dominate and a long
tail is invoked rarely.  This example replays the same open-loop
synthetic trace (Poisson arrivals over Zipf-ranked functions) against
both backends and reports per-rank behaviour.

The punchline matches the paper's analysis: skew is the *friendly* case
for Linux (the head stays hot in its container cache), yet the tail
still forces container creations that SEUSS serves as ~7.5 ms snapshot
cold starts — so Linux's tail latency is orders of magnitude worse even
on a workload built to favour it.

Run:  python examples/zipf_workload.py
"""

from repro import Environment
from repro.faas.cluster import FaasCluster
from repro.metrics.stats import percentile
from repro.workload.functions import unique_nop_set
from repro.workload.traces import (
    PoissonArrivals,
    ZipfPopularity,
    replay_trace,
    synthesize_trace,
)

FUNCTIONS = 400
REQUESTS = 3000
RATE_PER_S = 40.0
HEAD = 10


def run_backend(backend: str):
    env = Environment()
    if backend == "seuss":
        cluster = FaasCluster.with_seuss_node(env)
    else:
        cluster = FaasCluster.with_linux_node(env)
    functions = unique_nop_set(FUNCTIONS, owner_prefix=f"zipf-{backend}")
    popularity = ZipfPopularity(FUNCTIONS, exponent=1.1, seed=11)
    times, function_ids = synthesize_trace(
        functions,
        PoissonArrivals(RATE_PER_S, seed=11),
        popularity,
        count=REQUESTS,
    )
    head_keys = {functions[i].key for i in range(HEAD)}
    results = replay_trace(cluster, functions, times, function_ids)
    ok = [r for r in results if r.success]
    head = [r.latency_ms for r in ok if r.function_key in head_keys]
    tail = [r.latency_ms for r in ok if r.function_key not in head_keys]
    return {
        "errors": len(results) - len(ok),
        "head_p50": percentile(head, 50),
        "head_p99": percentile(head, 99),
        "tail_p50": percentile(tail, 50),
        "tail_p99": percentile(tail, 99),
        "head_share": popularity.head_share(HEAD),
    }


def main() -> None:
    print(
        f"{REQUESTS} Poisson requests at {RATE_PER_S:.0f}/s over "
        f"{FUNCTIONS} Zipf-ranked functions:"
    )
    rows = {backend: run_backend(backend) for backend in ("linux", "seuss")}
    share = rows["linux"]["head_share"]
    print(
        f"(the {HEAD} hottest functions carry {share * 100:.0f}% of traffic)\n"
    )
    print(
        f"{'backend':<8}{'errors':>8}{'head p50':>10}{'head p99':>10}"
        f"{'tail p50':>10}{'tail p99':>10}"
    )
    for backend, stats in rows.items():
        print(
            f"{backend:<8}{stats['errors']:>8}"
            f"{stats['head_p50']:>10.0f}{stats['head_p99']:>10.0f}"
            f"{stats['tail_p50']:>10.0f}{stats['tail_p99']:>10.0f}"
        )
    print(
        "\nLatencies in ms.  The popular head runs hot on both platforms;\n"
        "the long tail pays container creation on Linux but only a ~7.5 ms\n"
        "snapshot deployment on SEUSS."
    )


if __name__ == "__main__":
    main()
