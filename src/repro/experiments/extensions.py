"""Extension experiments beyond the paper's evaluation.

Three harnesses covering the design-choice ablations DESIGN.md calls
out and the paper's future-work directions:

* ``ablations`` — snapshot stacks, the idle-UC cache, the OOM daemon,
  and the shim bottleneck, each toggled off on the same workload;
* ``distributed`` — the §9 "DR-SEUSS" remote-warm path under the three
  transfer strategies;
* ``ksm`` — retroactive container dedup (the §5/§8 contrast): how close
  KSM gets to SEUSS density, and how long it takes to get there.
"""

from __future__ import annotations

from typing import Optional

from repro.distributed.transfer import TransferStrategy
from repro.experiments.base import ExperimentResult, ExperimentSpec, registry
from repro.faas.cluster import FaasCluster
from repro.linuxnode.instances import InstanceKind
from repro.linuxnode.ksm import DEFAULT_DUPLICATE_FRACTION
from repro.linuxnode.node import LinuxNode
from repro.mem.dedup import PageScanner
from repro.seuss.config import SeussConfig
from repro.seuss.node import SeussNode
from repro.sim import Environment
from repro.workload.functions import nop_function


def _fresh_node(**kwargs) -> SeussNode:
    node = SeussNode(Environment(), SeussConfig(**kwargs))
    node.initialize_sync()
    return node


def replicated_cluster(
    strategy: TransferStrategy,
    nodes: int = 2,
    config: Optional[SeussConfig] = None,
    **options,
) -> FaasCluster:
    """A ``nodes``-node SEUSS cluster shipping replicas under ``strategy``.

    ``options`` go to :meth:`FaasCluster.with_seuss_node`.  Under the
    default round robin a function's second request lands on the node
    after its home, so dropping the home node's idle UC in between
    makes that request a remote-warm deploy.
    """
    cluster = FaasCluster.with_seuss_node(
        Environment(), config=config, replication=strategy, **options
    )
    for _ in range(nodes - 1):
        node = SeussNode(cluster.env, config=config, costs=cluster.costs)
        node.initialize_sync()
        cluster.add_node(node)
    return cluster


def run_ablations() -> ExperimentResult:
    """One row per design choice: with vs. without."""
    result = ExperimentResult(
        experiment_id="ablations",
        title="Design-choice ablations",
        headers=["design choice", "metric", "with", "without", "factor"],
    )

    # Snapshot stacks (§3): cacheable functions under the same budget.
    stacked_node = _fresh_node(snapshot_stacks=True)
    flat_node = _fresh_node(snapshot_stacks=False)
    fn = nop_function(owner="abl-stacks")
    stacked_node.invoke_sync(fn)
    flat_node.invoke_sync(fn)
    stacked = stacked_node.snapshot_cache.get(fn.key)
    flat = flat_node.snapshot_cache.get(fn.key)
    stacked_cap = stacked_node.snapshot_cache.capacity_estimate(
        stacked.footprint_pages
    )
    flat_cap = flat_node.snapshot_cache.capacity_estimate(flat.footprint_pages)
    result.add_row(
        "snapshot stacks",
        "cacheable fn snapshots",
        stacked_cap,
        flat_cap,
        f"{stacked_cap / flat_cap:.0f}x",
    )

    # Idle-UC cache (§4): repeat-invocation latency.
    hot_node = _fresh_node(cache_idle_ucs=True)
    warm_node = _fresh_node(cache_idle_ucs=False)
    fn = nop_function(owner="abl-hot")
    hot_node.invoke_sync(fn)
    warm_node.invoke_sync(fn)
    hot_ms = hot_node.invoke_sync(fn).latency_ms
    warm_ms = warm_node.invoke_sync(fn).latency_ms
    result.add_row(
        "idle-UC cache",
        "repeat latency (ms)",
        hot_ms,
        warm_ms,
        f"{warm_ms / hot_ms:.1f}x",
    )

    # Shim connection (§6): parallel creation rate with/without the hop.
    env = Environment()
    node = SeussNode(env)
    node.initialize_sync()
    from repro.seuss.shim import ShimProcess

    shim = ShimProcess(env, node.costs.platform)

    def through_shim():
        yield from shim.forward()
        yield from node.deploy_idle_instance()

    started = env.now
    procs = [env.process(through_shim()) for _ in range(500)]
    env.run(until=env.all_of(procs))
    with_shim = 500 / ((env.now - started) / 1000.0)
    started = env.now
    procs = [env.process(node.deploy_idle_instance()) for _ in range(500)]
    env.run(until=env.all_of(procs))
    without_shim = 500 / ((env.now - started) / 1000.0)
    result.add_row(
        "single-TCP shim",
        "UC creation rate (/s)",
        with_shim,
        without_shim,
        f"{without_shim / with_shim:.0f}x",
    )
    result.add_note(
        "AO ablation is Table 2; OOM-daemon ablation is "
        "benchmarks/test_ablations.py::test_oom_daemon_ablation"
    )
    return result


def run_distributed() -> ExperimentResult:
    """§9: remote-warm latency per transfer strategy."""
    result = ExperimentResult(
        experiment_id="distributed",
        title="Distributed SEUSS (§9): remote-warm deployments",
        headers=[
            "transfer strategy",
            "cold (ms)",
            "remote-warm (ms)",
            "upfront MB",
            "saved vs cold",
        ],
    )
    # The three constant-fraction strategies; RECORDED needs a recorded
    # manifest and is evaluated by the `prefetch` experiment instead.
    classic_strategies = (
        TransferStrategy.FULL_COPY,
        TransferStrategy.ON_DEMAND,
        TransferStrategy.COLORED,
    )
    for strategy in classic_strategies:
        cluster = replicated_cluster(strategy)
        fn = nop_function(owner=f"dist-{strategy.value}")
        cold = cluster.invoke_sync(fn)
        cluster.nodes[0].uc_cache.drop_function(fn.key)
        remote = cluster.invoke_sync(fn)
        assert remote.transferred_mb > 0, remote
        result.add_row(
            strategy.value,
            cold.node_latency_ms,
            remote.node_latency_ms,
            remote.transferred_mb * strategy.upfront_fraction,
            f"{cold.node_latency_ms - remote.node_latency_ms:.2f} ms",
        )
    result.add_note(
        "the 114.5 MB runtime image never crosses the wire; only the "
        "~2 MB function diff does"
    )
    return result


def run_autoao(samples: int = 6) -> ExperimentResult:
    """§9: discover the AO passes automatically from first-use traces."""
    from repro.seuss.autoao import evaluate_proposals, profile_first_use

    result = ExperimentResult(
        experiment_id="autoao",
        title="Automatic AO discovery (§9): profile -> propose -> apply",
        headers=[
            "discovered pass",
            "extent",
            "seen in samples",
            "pages moved to base",
        ],
    )
    report = profile_first_use(samples=samples)
    for proposal in report.proposals:
        result.add_row(
            proposal.ao_pass,
            proposal.extent,
            f"{proposal.observed_fraction * 100:.0f}%",
            proposal.pages,
        )
    before_ms, after_ms = evaluate_proposals(report)
    result.add_note(
        f"applying the discovered passes: cold start {before_ms:.1f} ms -> "
        f"{after_ms:.1f} ms ({before_ms / after_ms:.1f}x) — the Table 2 "
        "result, rediscovered from observation"
    )
    result.raw["report"] = report
    return result


def run_ksm_contrast(containers: int = 200) -> ExperimentResult:
    """§5/§8: retroactive KSM dedup vs snapshot-time sharing."""
    result = ExperimentResult(
        experiment_id="ksm",
        title="KSM retroactive dedup vs SEUSS snapshot sharing",
        headers=["quantity", "KSM containers", "SEUSS UCs"],
    )
    env = Environment()
    node = LinuxNode(env)
    for _ in range(containers):
        env.run(until=env.process(node.deploy_instance(InstanceKind.CONTAINER)))
    daemon = PageScanner(
        env,
        node.allocator,
        duplicate_fraction=DEFAULT_DUPLICATE_FRACTION,
        category="container",
    )
    deployed_at = env.now
    daemon.start()
    env.run(until=env.now + 120_000)  # 2 minutes of scanning
    daemon.stop()
    env.run()
    ksm_gain = daemon.effective_density_gain()
    seconds_to_converge = (
        daemon.stats.merged_pages / daemon.scan_rate_pages_per_s
    )

    seuss_node = _fresh_node()
    base = seuss_node.runtime_record("nodejs").snapshot
    idle = seuss_node.env.run(
        until=seuss_node.env.process(seuss_node.deploy_idle_instance())
    )
    seuss_gain = (base.size_mb + idle.resident_mb) / idle.resident_mb

    result.add_row("density gain over unshared", f"{ksm_gain:.2f}x", f"{seuss_gain:.0f}x")
    result.add_row(
        "time for sharing to take effect",
        f"{seconds_to_converge:.0f} s of scanning",
        "0 (at deploy)",
    )
    result.add_row("cross-tenant side channel", "yes (content-based)", "no (lineage-bounded)")
    result.add_note(
        f"KSM merged {daemon.stats.merged_pages:,} duplicate pages across "
        f"{containers} containers at ~25k pages/s"
    )
    return result


ABLATIONS_SPEC = registry.register(
    ExperimentSpec(
        experiment_id="ablations",
        title="Design-choice ablations",
        entry=run_ablations,
        profiles={"full": {}},
        tags=("extension",),
    )
)

DISTRIBUTED_SPEC = registry.register(
    ExperimentSpec(
        experiment_id="distributed",
        title="DR-SEUSS: the distributed remote-warm path",
        entry=run_distributed,
        profiles={"full": {}},
        tags=("extension", "distributed"),
    )
)

KSM_SPEC = registry.register(
    ExperimentSpec(
        experiment_id="ksm",
        title="KSM retroactive dedup vs SEUSS snapshot sharing",
        entry=run_ksm_contrast,
        profiles={
            "full": {},
            "quick": {"containers": 60},
            "smoke": {"containers": 20},
        },
        tags=("extension",),
    )
)

AUTOAO_SPEC = registry.register(
    ExperimentSpec(
        experiment_id="autoao",
        title="Automatic AO discovery (profile -> propose -> apply)",
        entry=run_autoao,
        profiles={
            "full": {},
            "quick": {"samples": 3},
            "smoke": {"samples": 2},
        },
        tags=("extension",),
    )
)
