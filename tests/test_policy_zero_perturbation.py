"""Spelling out a cache policy must not perturb the default path.

Every node cache evicts through a policy, and ``cache_policy`` defaults
to ``"lru"``, the seed discipline.  Naming ``lru`` explicitly, or the
``lifo`` policy under no eviction pressure, must replay the exact event
schedule of a cluster built with no knobs at all (rows of the harness
in ``tests/test_zero_perturbation.py``).
"""

from __future__ import annotations

from repro.linuxnode.config import LinuxNodeConfig
from repro.seuss.config import SeussConfig
from tests.test_zero_perturbation import assert_replays_default, run


class TestSeussPolicyIsInvisible:
    def test_lru_policy_schedule_is_byte_identical(self):
        assert_replays_default("seuss", config=SeussConfig(cache_policy="lru"))

    def test_lifo_policy_schedule_is_byte_identical(self):
        # Policies only order evictions; with no eviction pressure in
        # this trial even the anti-LRU order changes nothing.
        assert_replays_default("seuss", config=SeussConfig(cache_policy="lifo"))


class TestLinuxPolicyIsInvisible:
    def test_lru_policy_schedule_is_byte_identical(self):
        assert_replays_default("linux", config=LinuxNodeConfig(cache_policy="lru"))

    def test_lifo_policy_schedule_is_byte_identical(self):
        assert_replays_default("linux", config=LinuxNodeConfig(cache_policy="lifo"))


class TestPolicyStatsStayQuiet:
    def test_lru_policy_counts_without_perturbing(self):
        """With nothing to decide, each policy still tracks exactly the
        keys its cache holds, and has evicted nothing."""
        _, cluster = run("seuss", config=SeussConfig(cache_policy="lru"))
        node = cluster.nodes[0]
        snapshots = node.snapshot_cache._entries
        idle = dict(node.uc_cache.items())
        assert len(snapshots) > 0 and len(idle) > 0
        for policy, keys in ((node.cache_policy, snapshots), (node.uc_policy, idle)):
            assert len(policy) == len(keys)
            assert all(key in policy for key in keys)
            assert policy.stats.evictions == 0
