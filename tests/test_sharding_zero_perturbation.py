"""The sharded control plane must not perturb the default path.

A cluster built with ``shards=1, routing="round_robin"`` — the explicit
spelling of the defaults — must replay the exact event schedule of one
built without either knob, on both node types (rows of the harness in
``tests/test_zero_perturbation.py``).
"""

from __future__ import annotations

from repro.faas.cluster import FaasCluster
from repro.sim import Environment
from repro.workload.functions import unique_nop_set
from tests.test_zero_perturbation import assert_replays_default

EXPLICIT_DEFAULTS = {"shards": 1, "routing": "round_robin"}


class TestOneShardRoundRobinIsInvisible:
    def test_seuss_cluster_schedule_is_byte_identical(self):
        assert_replays_default("seuss", **EXPLICIT_DEFAULTS)

    def test_linux_cluster_schedule_is_byte_identical(self):
        assert_replays_default("linux", **EXPLICIT_DEFAULTS)

    def test_explicit_defaults_wire_a_plane_without_perturbation(self):
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env, **EXPLICIT_DEFAULTS)
        plane = cluster.control_plane
        assert plane.shard_count == 1
        assert plane.routing_policy_name == "round_robin"
        # One shard, one router, zero affinity decisions: the routing
        # layer is pure bookkeeping on this path.
        result = cluster.invoke_sync(unique_nop_set(1)[0])
        assert result.success
        stats = plane.routing_stats()
        assert stats.decisions == 1
        assert stats.locality_decisions == 0
