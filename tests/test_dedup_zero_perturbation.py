"""Page dedup must not perturb the default path.

A cluster built with the dedup knobs spelled out at their defaults
(``page_dedup=False``, ``dedup_scanner=False``, ...) must replay the
exact event schedule of one built without mentioning dedup at all, on
both node types (rows of the harness in
``tests/test_zero_perturbation.py``).
"""

from __future__ import annotations

from repro.faas.cluster import FaasCluster
from repro.linuxnode.ksm import DEFAULT_DUPLICATE_FRACTION
from repro.mem.dedup import PageScanner
from repro.seuss.config import SeussConfig
from repro.sim import Environment
from repro.workload.functions import unique_nop_set
from tests.test_zero_perturbation import assert_replays_default

EXPLICIT_DEFAULT_CONFIG = SeussConfig(
    page_dedup=False,
    dedup_scope="tenant",
    dedup_duplicate_fraction=0.55,
    dedup_scanner=False,
    dedup_scan_rate_pages_per_s=25_000.0,
)


class TestDedupOffIsInvisible:
    def test_seuss_cluster_schedule_is_byte_identical(self):
        assert_replays_default("seuss", config=EXPLICIT_DEFAULT_CONFIG)

    def test_linux_cluster_schedule_is_byte_identical(self):
        def construct_but_never_start(env, cluster):
            # A KSM scanner may be built eagerly; only start() costs time.
            for node in cluster.nodes:
                PageScanner(
                    env,
                    node.allocator,
                    duplicate_fraction=DEFAULT_DUPLICATE_FRACTION,
                    category="container",
                )

        assert_replays_default("linux", prepare=construct_but_never_start)

    def test_default_config_wires_no_dedup_domain(self):
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env)
        for node in cluster.nodes:
            assert node.dedup is None

    def test_explicit_defaults_wire_no_dedup_domain(self):
        env = Environment()
        cluster = FaasCluster.with_seuss_node(
            env, config=EXPLICIT_DEFAULT_CONFIG
        )
        for node in cluster.nodes:
            assert node.dedup is None

    def test_dedup_on_does_wire_a_domain(self):
        env = Environment()
        cluster = FaasCluster.with_seuss_node(
            env, config=SeussConfig(page_dedup=True)
        )
        for node in cluster.nodes:
            assert node.dedup is not None
            assert node.dedup.capture_enabled
            assert node.dedup.scanner is None

    def test_resilience_report_sees_dedup_without_health_view(self):
        # The report finds dedup domains via cluster.nodes, not via the
        # breaker-wrapped health view.
        from repro.metrics.resilience import ResilienceReport

        env = Environment()
        cluster = FaasCluster.with_seuss_node(
            env, config=SeussConfig(page_dedup=True, dedup_scanner=True)
        )
        for fn in unique_nop_set(4, owner_prefix="tenant"):
            assert cluster.invoke_sync(fn).success
        env.run(until=env.now + 2_000)
        report = ResilienceReport.from_cluster(cluster)
        assert report.dedup_merged_pages > 0
        assert report.dedup_scan_ms > 0
        assert any(line.startswith("dedup:") for line in report.lines())
