"""Benchmark: distributed SEUSS (§9 future work).

Quantifies the remote-warm path a replicated global snapshot cache adds:
a function whose snapshot lives on a peer node deploys by shipping the
~2 MB diff over 10 GbE instead of re-importing code — cheaper than a
cold start under every transfer strategy, with state coloring cheapest.
"""

from __future__ import annotations

from repro.distributed.transfer import TransferStrategy
from repro.experiments.extensions import replicated_cluster
from repro.faas.records import InvocationPath
from repro.workload.functions import nop_function


def measure_strategies():
    out = {}
    for strategy in TransferStrategy:
        cluster = replicated_cluster(strategy)
        fn = nop_function(owner=f"bench-{strategy.value}")
        cold = cluster.invoke_sync(fn)
        # Round robin sends the next request to the peer.
        cluster.nodes[0].uc_cache.drop_function(fn.key)
        remote = cluster.invoke_sync(fn)
        assert remote.transferred_mb > 0, remote
        out[strategy] = {
            "cold_ms": cold.node_latency_ms,
            "remote_ms": remote.node_latency_ms,
        }
    return out


def test_remote_warm_strategies(once):
    out = once(measure_strategies)
    print()
    for strategy, numbers in out.items():
        print(
            f"{strategy.value:<10} cold {numbers['cold_ms']:.2f} ms -> "
            f"remote-warm {numbers['remote_ms']:.2f} ms"
        )
    for numbers in out.values():
        # Remote-warm always beats re-running import/compile.
        assert numbers["remote_ms"] < numbers["cold_ms"]
    # Coloring ships the least up front, so it deploys fastest.
    assert (
        out[TransferStrategy.COLORED]["remote_ms"]
        < out[TransferStrategy.FULL_COPY]["remote_ms"]
    )


def test_affinity_scheduling_avoids_wire_traffic(once):
    def measure():
        cluster = replicated_cluster(
            TransferStrategy.COLORED, nodes=4, routing="snapshot_affinity"
        )
        functions = [nop_function(owner=f"aff-{i}") for i in range(12)]
        paths = []
        for _ in range(3):
            for fn in functions:
                paths.append(cluster.invoke_sync(fn).path)
        return cluster, paths

    cluster, paths = once(measure)
    fabric = cluster.control_plane.replicas.interconnect
    print(f"\n{cluster.control_plane.routing_stats()}\n{fabric.stats}")
    assert fabric.stats.transfers == 0  # affinity keeps requests home
    assert paths.count(InvocationPath.HOT) > paths.count(InvocationPath.COLD)


def test_cluster_cold_throughput_scales_with_nodes(once):
    """Aggregate all-cold capacity grows with node count (§9's goal:
    'these properties but at a scale that far exceeds a single node')."""

    def measure():
        out = {}
        for node_count in (1, 4):
            cluster = replicated_cluster(
                TransferStrategy.COLORED,
                nodes=node_count,
                shards=node_count,
                routing="least_loaded",
            )
            env = cluster.env
            started = env.now
            procs = [
                cluster.invoke(nop_function(owner=f"s{node_count}-{i}"))
                for i in range(400)
            ]
            env.run(until=env.all_of(procs))
            assert all(p.value.success for p in procs)
            out[node_count] = 400 / ((env.now - started) / 1000.0)
        return out

    rates = once(measure)
    print(
        f"\nall-cold rate: 1 node {rates[1]:,.0f}/s, "
        f"4 nodes {rates[4]:,.0f}/s"
    )
    # Each control-plane shard brings its own shim connection, so four
    # shards lift the ~128 req/s one-shim ceiling that a single shard
    # puts on any number of nodes.
    assert rates[4] > rates[1] * 2.5
