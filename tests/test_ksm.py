"""KSM tests: retroactive dedup mechanics and the SEUSS contrast.

KSM is a :class:`~repro.mem.dedup.PageScanner` over the Linux node's
``container`` category with KSM's duplicate fraction.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.linuxnode.instances import InstanceKind
from repro.linuxnode.ksm import DEFAULT_DUPLICATE_FRACTION
from repro.linuxnode.node import LinuxNode
from repro.mem.dedup import PageScanner


def ksm(env, allocator, duplicate_fraction=DEFAULT_DUPLICATE_FRACTION, **kwargs):
    return PageScanner(
        env,
        allocator,
        duplicate_fraction=duplicate_fraction,
        category="container",
        **kwargs,
    )


@pytest.fixture
def loaded_node(env):
    """A Linux node with 50 raw containers deployed."""
    node = LinuxNode(env)
    for _ in range(50):
        env.run(until=env.process(node.deploy_instance(InstanceKind.CONTAINER)))
    return node


class TestMergeArithmetic:
    def test_mergeable_bounded_by_duplicate_fraction(self, env, loaded_node):
        daemon = ksm(env, loaded_node.allocator, duplicate_fraction=0.5)
        resident = loaded_node.allocator.category_pages("container")
        assert daemon.mergeable_pages() == resident // 2

    def test_merge_frees_frames(self, env, loaded_node):
        daemon = ksm(env, loaded_node.allocator)
        before = loaded_node.allocator.free_pages
        merged = daemon.merge(10_000)
        assert merged == 10_000
        assert loaded_node.allocator.free_pages == before + 10_000

    def test_merge_stops_at_duplicate_pool(self, env, loaded_node):
        daemon = ksm(env, loaded_node.allocator, duplicate_fraction=0.1)
        pool = daemon.mergeable_pages()
        assert daemon.merge(10**9) == pool
        assert daemon.merge(10**9) == 0

    def test_density_gain(self, env, loaded_node):
        daemon = ksm(env, loaded_node.allocator, duplicate_fraction=0.5)
        assert daemon.effective_density_gain() == pytest.approx(1.0)
        daemon.merge(10**9)
        assert daemon.effective_density_gain() == pytest.approx(2.0)

    def test_invalid_parameters(self, env, allocator):
        with pytest.raises(ConfigError):
            ksm(env, allocator, duplicate_fraction=1.0)
        with pytest.raises(ConfigError):
            ksm(env, allocator, scan_rate_pages_per_s=0)


class TestDaemonDynamics:
    def test_sharing_is_established_retroactively(self, env, loaded_node):
        """The §5 contrast: KSM's gains arrive over *time*, not at
        deploy — SEUSS's snapshot sharing is immediate."""
        daemon = ksm(
            env, loaded_node.allocator, scan_rate_pages_per_s=25_000
        )
        daemon.start()
        freed_early = loaded_node.allocator.free_pages
        env.run(until=env.now + 1_000)  # 1 s of scanning
        after_1s = loaded_node.allocator.free_pages - freed_early
        env.run(until=env.now + 9_000)  # 10 s total
        after_10s = loaded_node.allocator.free_pages - freed_early
        daemon.stop()
        assert 0 < after_1s < after_10s
        # ~25k pages/s: the first second merges roughly that many.
        assert after_1s == pytest.approx(25_000, rel=0.15)

    def test_daemon_converges_and_idles(self, env, loaded_node):
        daemon = ksm(env, loaded_node.allocator)
        daemon.start()
        env.run(until=env.now + 60_000)
        daemon.stop()
        env.run()
        assert daemon.mergeable_pages() == 0
        assert daemon.stats.merged_pages > 0
        assert daemon.stats.scans > 100

    def test_retroactive_flag_is_the_security_tradeoff(self, env, allocator):
        from repro.seuss.security import SEUSS_PROFILE

        daemon = ksm(env, allocator)
        assert daemon.retroactive_sharing
        assert not SEUSS_PROFILE.retroactive_dedup


class TestStopStartRegression:
    """Stop/start must not leave two live scan loops.

    The old loop only checked a boolean, so a ``stop()``/``start()``
    cycle while the first loop was parked on its timeout left both
    loops running — doubling the effective scan rate.  The
    loop-generation token retires the parked loop on wake.
    """

    def test_restart_does_not_double_scan_rate(self, env, loaded_node):
        daemon = ksm(
            env, loaded_node.allocator, scan_rate_pages_per_s=25_000
        )
        # Churn the daemon: several stop/start cycles, each leaving a
        # loop parked mid-timeout when the next one spawns.
        for _ in range(3):
            daemon.start()
            env.run(until=env.now + 50)  # mid-interval: loop is parked
            daemon.stop()
        daemon.start()
        merged_before = daemon.stats.merged_pages
        env.run(until=env.now + 1_000)
        merged = daemon.stats.merged_pages - merged_before
        # One live loop merges ~25k pages/s; the double-loop bug
        # produced ~2x (and ~4x after the cycles above).
        assert merged == pytest.approx(25_000, rel=0.15)

    def test_start_is_idempotent_while_running(self, env, loaded_node):
        daemon = ksm(
            env, loaded_node.allocator, scan_rate_pages_per_s=25_000
        )
        daemon.start()
        daemon.start()  # no second loop
        merged_before = daemon.stats.merged_pages
        env.run(until=env.now + 1_000)
        merged = daemon.stats.merged_pages - merged_before
        assert merged == pytest.approx(25_000, rel=0.15)
        daemon.stop()
        env.run()
        assert not daemon.running

    def test_stopped_daemon_stays_stopped(self, env, loaded_node):
        daemon = ksm(env, loaded_node.allocator)
        daemon.start()
        env.run(until=env.now + 1_000)
        daemon.stop()
        merged_at_stop = daemon.stats.merged_pages
        env.run(until=env.now + 5_000)
        assert daemon.stats.merged_pages == merged_at_stop
