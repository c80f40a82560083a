"""Zero-perturbation harness: explicit defaults replay the default path.

Every knob defaults to the historical behaviour, so a cluster built
with a knob spelled out at its default must replay the exact event
schedule of one built with no knobs at all, on both node types.  The
fingerprints compare complete per-request timing sequences, so a single
reordered event or 1-ulp float drift fails.

The per-feature ``test_*_zero_perturbation.py`` modules declare their
rows through :func:`assert_replays_default`; the rows here cover the
control-plane knobs every cluster wires (breakers and retries ride the
one routed path even when nothing fails).
"""

from __future__ import annotations

import functools

import pytest

from repro.faas.cluster import FaasCluster
from repro.faas.controller import RetryPolicy
from repro.faas.health import BreakerPolicy
from repro.sim import Environment
from repro.workload.functions import unique_nop_set
from repro.workload.generator import run_trial

INVOCATIONS = 200
SET_SIZE = 16
WORKERS = 8
SEED = 0x0FF

CONSTRUCTORS = {
    "seuss": FaasCluster.with_seuss_node,
    "linux": FaasCluster.with_linux_node,
}


def fingerprint(trial):
    """Everything a client can observe, in completion order.

    ``request_id`` is excluded: it comes from a process-global counter,
    so it differs between any two runs in one test process.
    """
    return [
        (r.sent_at_ms, r.finished_at_ms, r.path, r.success, r.attempts)
        for r in trial.results
    ]


def run(node_type, prepare=None, **cluster_kwargs):
    """One seeded closed-loop trial; returns ``(trial, cluster)``."""
    env = Environment()
    cluster = CONSTRUCTORS[node_type](env, **cluster_kwargs)
    if prepare is not None:
        prepare(env, cluster)
    trial = run_trial(
        cluster,
        unique_nop_set(SET_SIZE),
        invocation_count=INVOCATIONS,
        workers=WORKERS,
        seed=SEED,
    )
    return trial, cluster


@functools.lru_cache(maxsize=None)
def default_fingerprint(node_type):
    return fingerprint(run(node_type)[0])


def assert_replays_default(node_type, prepare=None, **cluster_kwargs):
    trial, _ = run(node_type, prepare, **cluster_kwargs)
    assert fingerprint(trial) == default_fingerprint(node_type)


EXPLICIT_DEFAULTS = {
    "breaker": {"breaker": BreakerPolicy()},
    "retries": {"retries": RetryPolicy()},
}


@pytest.mark.parametrize("config", sorted(EXPLICIT_DEFAULTS))
@pytest.mark.parametrize("node_type", sorted(CONSTRUCTORS))
def test_explicit_default_replays_default_schedule(node_type, config):
    assert_replays_default(node_type, **EXPLICIT_DEFAULTS[config])
