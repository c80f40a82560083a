#!/usr/bin/env python3
"""Distributed SEUSS (§9): a replicated global snapshot cache.

The paper's future-work section ("DR-SEUSS") observes that snapshots
are read-only and deploy-anywhere, so they can be cloned across
machines.  This example grows a ``FaasCluster`` to several SEUSS nodes
with ``replication=`` set and shows the deployment path that falls
out: **remote-warm** — ship a ~2 MB diff over 10 GbE instead of
re-importing code — under each transfer strategy (full copy,
on-demand paging, VM state coloring, recorded working sets).

Run:  python examples/distributed_cache.py
"""

from repro import Environment, nop_function
from repro.distributed import TransferStrategy
from repro.faas.cluster import FaasCluster
from repro.seuss.node import SeussNode


def build_cluster(strategy: TransferStrategy, nodes: int) -> FaasCluster:
    cluster = FaasCluster.with_seuss_node(Environment(), replication=strategy)
    for _ in range(nodes - 1):
        node = SeussNode(cluster.env, costs=cluster.costs)
        node.initialize_sync()
        cluster.add_node(node)
    return cluster


def path_label(result) -> str:
    return "remote_warm" if result.transferred_mb else result.path.value


def demo_strategies() -> None:
    print("remote-warm deployment vs transfer strategy (2 MB diff):")
    print(f"{'strategy':<12}{'cold ms':>9}{'remote-warm ms':>16}{'saved':>8}")
    for strategy in TransferStrategy:
        cluster = build_cluster(strategy, nodes=2)
        fn = nop_function(owner=f"demo-{strategy.value}")
        cold = cluster.invoke_sync(fn)
        # Round robin sends the next request to the peer; without an
        # idle UC at home, the peer deploys from a shipped replica.
        cluster.nodes[0].uc_cache.drop_function(fn.key)
        remote = cluster.invoke_sync(fn)
        assert path_label(remote) == "remote_warm"
        cold_ms, remote_ms = cold.node_latency_ms, remote.node_latency_ms
        print(
            f"{strategy.value:<12}{cold_ms:>9.2f}"
            f"{remote_ms:>16.2f}{cold_ms - remote_ms:>7.2f}ms"
        )
    print()


def demo_replication() -> None:
    cluster = build_cluster(TransferStrategy.COLORED, nodes=4)
    fn = nop_function(owner="popular")
    # A popular function rotating across the cluster gets replicated
    # onto every node it lands on — at diff cost, never image cost.
    for round_number in range(8):
        result = cluster.invoke_sync(fn)
        for node in cluster.nodes:
            node.uc_cache.drop_function(fn.key)
        print(
            f"  round {round_number}: {path_label(result):<12} "
            f"({result.node_latency_ms:6.2f} ms at the node, "
            f"{result.transferred_mb:.2f} MB moved)"
        )
    holders = sum(fn.key in node.snapshot_cache for node in cluster.nodes)
    fabric = cluster.control_plane.replicas.interconnect
    print(
        f"\nreplicas of {fn.key!r}: {holders} of {len(cluster.nodes)} nodes; "
        f"wire total {fabric.stats.mb_moved:.1f} MB "
        f"(the 114.5 MB runtime image never moves — every node already "
        "has it)"
    )


def main() -> None:
    demo_strategies()
    print("replicating a popular function across a 4-node cluster:")
    demo_replication()


if __name__ == "__main__":
    main()
