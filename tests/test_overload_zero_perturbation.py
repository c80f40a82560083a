"""The overload control plane must not perturb the default path.

Every knob defaults off, and a cluster built with the disabled config
(or with a deadline that never binds) must replay the exact event
schedule of one built without it (rows of the harness in
``tests/test_zero_perturbation.py``).
"""

from __future__ import annotations

import pytest

from repro.costs import DEFAULT_COSTS
from repro.faas.cluster import FaasCluster
from repro.faas.controller import RetryPolicy
from repro.faas.health import BreakerPolicy
from repro.faas.overload import OVERLOAD_DISABLED, OverloadConfig
from repro.sim import Environment
from tests.test_zero_perturbation import (
    assert_replays_default,
    fingerprint,
    run,
)

#: Ten times the platform request timeout: min(timeout, deadline)
#: always resolves to the historical expression.
NEVER_BINDING = OverloadConfig(
    deadline_ms=10.0 * DEFAULT_COSTS.platform.request_timeout_ms
)


class TestDisabledConfigIsInvisible:
    def test_seuss_cluster_schedule_is_byte_identical(self):
        assert_replays_default("seuss", overload=OVERLOAD_DISABLED)

    def test_linux_cluster_schedule_is_byte_identical(self):
        assert_replays_default("linux", overload=OVERLOAD_DISABLED)

    def test_disabled_cluster_wires_no_control_plane(self):
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env, overload=OVERLOAD_DISABLED)
        assert all(shard.overload is None for shard in cluster.control_plane.shards)
        assert cluster.controller.overload is None


class TestUnboundDeadlineIsInvisible:
    """Attaching a deadline that never binds must not shift a single
    event: the remaining-time arithmetic replicates the historical
    float-operation order exactly, and zombie/cancel bookkeeping is
    pure accounting."""

    RESILIENT = dict(
        retries=RetryPolicy(max_attempts=3),
        breaker=BreakerPolicy(),
    )

    @pytest.fixture(scope="class")
    def baseline(self):
        return fingerprint(run("seuss", **self.RESILIENT)[0])

    def test_never_binding_deadline_matches_baseline(self, baseline):
        deadlined, _ = run("seuss", overload=NEVER_BINDING, **self.RESILIENT)
        assert fingerprint(deadlined) == baseline

    def test_no_overload_counters_fire(self, baseline):
        _, cluster = run("seuss", overload=NEVER_BINDING)
        stats = cluster.controller.overload.stats
        assert stats.shed == 0
        assert stats.cancelled == 0
        assert stats.deadline_rejected == 0
        assert stats.retry_budget_denied == 0
        for node in cluster.nodes:
            assert node.cancelled_count == 0
            assert node.zombie_count == 0
            assert node.wasted_ms == 0.0
