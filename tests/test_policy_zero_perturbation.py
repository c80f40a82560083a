"""Pluggable cache policies must not perturb the default path.

``cache_policy`` is opt-in (``None`` by default), and selecting the
``lru`` policy — which mirrors the seed eviction discipline exactly —
or the ``lifo`` policy under no eviction pressure must replay the exact
event schedule of a cluster built with no policy at all (rows of the
harness in ``tests/test_zero_perturbation.py``).
"""

from __future__ import annotations

from repro.faas.cluster import FaasCluster
from repro.linuxnode.config import LinuxNodeConfig
from repro.seuss.config import SeussConfig
from repro.sim import Environment
from tests.test_zero_perturbation import assert_replays_default, run


class TestSeussPolicyIsInvisible:
    def test_lru_policy_schedule_is_byte_identical(self):
        assert_replays_default("seuss", config=SeussConfig(cache_policy="lru"))

    def test_lifo_policy_schedule_is_byte_identical(self):
        # Policies only order evictions; with no eviction pressure in
        # this trial even the anti-LRU order changes nothing.
        assert_replays_default("seuss", config=SeussConfig(cache_policy="lifo"))

    def test_no_policy_builds_no_policy_objects(self):
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env)
        node = cluster.nodes[0]
        assert node.cache_policy is None
        assert node.uc_policy is None


class TestLinuxPolicyIsInvisible:
    def test_lru_policy_schedule_is_byte_identical(self):
        assert_replays_default("linux", config=LinuxNodeConfig(cache_policy="lru"))

    def test_lifo_policy_schedule_is_byte_identical(self):
        assert_replays_default("linux", config=LinuxNodeConfig(cache_policy="lifo"))

    def test_no_policy_builds_no_policy_object(self):
        env = Environment()
        cluster = FaasCluster.with_linux_node(env)
        assert cluster.nodes[0].cache_policy is None


class TestPolicyStatsStayQuiet:
    def test_lru_policy_counts_without_perturbing(self):
        """The mirrored policy sees traffic (tracked/hits) even when it
        never has to decide anything."""
        _, cluster = run("seuss", config=SeussConfig(cache_policy="lru"))
        node = cluster.nodes[0]
        assert node.cache_policy is not None
        assert node.cache_policy.stats.tracked > 0
        assert node.uc_policy.stats.tracked > 0
