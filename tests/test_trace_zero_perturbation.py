"""Tracing must not perturb simulation results, and costs nothing off.

The tracer is a pure observer: it never schedules events, draws random
numbers, or advances the clock.  These tests lock that down by running
the same seeded experiments with tracing off and globally on and
asserting the rendered tables are byte-identical.  With tracing off, a
hot invocation makes no call into the disabled tracer at all.
"""

from __future__ import annotations

import pytest

from repro import trace
from repro.experiments import load_all
from repro.experiments.suite import run_suite
from repro.trace import NULL_TRACER, Tracer
from tests.census import null_tracer_calls, null_tracer_census
from tests.test_zero_perturbation import INVOCATIONS, assert_replays_default

#: A deterministic selection covering the seeded fault-injection paths
#: (chaos), the microbenchmark paths (table1) and the traced experiment
#: itself (latency).
EXPERIMENTS = ["table1", "chaos", "latency"]
SUITE_SEED = 0xC0FFEE


def run_selection(traced: bool):
    """One seeded smoke suite; returns (outcome texts, table dicts)."""
    registry = load_all()
    tracer = trace.enable(Tracer()) if traced else None
    try:
        suite = run_suite(
            EXPERIMENTS,
            profile="smoke",
            parallel=1,
            seed=SUITE_SEED,
            registry=registry,
        )
    finally:
        if tracer is not None:
            trace.disable()
    assert suite.ok, [o.error for o in suite.failed]
    texts = [o.text for o in suite.outcomes]
    tables = [o.table for o in suite.outcomes]
    return texts, tables, tracer


@pytest.mark.slow
def test_traced_run_is_byte_identical():
    baseline_texts, baseline_tables, _ = run_selection(traced=False)
    traced_texts, traced_tables, tracer = run_selection(traced=True)
    assert traced_texts == baseline_texts
    assert traced_tables == baseline_tables
    # The traced run actually recorded something — it was not a no-op
    # comparison of two untraced runs.
    assert len(tracer.spans) > 0
    assert len(tracer.events) > 0


def test_traced_suite_json_differs_only_in_trace_fields():
    """Suite payloads match apart from trace metadata and wall-clock."""

    def normalized(traced: bool) -> dict:
        registry = load_all()
        tracer = trace.enable(Tracer()) if traced else None
        try:
            suite = run_suite(
                ["latency"],
                profile="smoke",
                parallel=1,
                seed=SUITE_SEED,
                registry=registry,
            )
        finally:
            if tracer is not None:
                trace.disable()
        assert suite.ok
        suite.trace_enabled = traced
        payload = suite.to_dict()
        payload.pop("wall_clock_s")
        trace_field = payload.pop("trace")
        for experiment in payload["experiments"]:
            experiment.pop("duration_s")
        return payload, trace_field

    base_payload, base_trace = normalized(traced=False)
    traced_payload, traced_trace = normalized(traced=True)
    assert base_payload == traced_payload
    assert base_trace == {"enabled": False, "path": None}
    assert traced_trace == {"enabled": True, "path": None}


def test_traced_linux_trial_replays_untraced_schedule():
    """A Linux node records spans too (one ``invocation`` root per
    request); tracing it still leaves the event schedule untouched."""
    attached = []

    def attach_tracer(env, cluster):
        attached.append((Tracer().attach(env), env))

    try:
        assert_replays_default("linux", prepare=attach_tracer)
    finally:
        for tracer, env in attached:
            tracer.detach(env)
    ((tracer, _),) = attached
    assert len(tracer.roots("invocation")) == INVOCATIONS


def test_null_tracer_call_counter_sees_calls():
    """The counter below reads 0 only because no call was made."""
    with null_tracer_calls() as calls:
        NULL_TRACER.span("probe").annotate(probe=True)
        NULL_TRACER.counter("probe")
    assert calls == {
        "NullTracer.span": 1,
        "_NullSpan.annotate": 1,
        "NullTracer.counter": 1,
    }
    assert NULL_TRACER.span("probe") is NULL_TRACER.span("other")


@pytest.mark.parametrize("backend", ["seuss", "linux"])
def test_untraced_hot_invocation_makes_no_null_tracer_call(backend):
    """Free when off: the controller and the invocation ledger test
    ``enabled`` once and then build no span, so an untraced hot
    ``cluster.invoke`` calls no ``span``, ``done``, ``annotate`` or
    ``finish`` (nor any other null-tracer method)."""
    assert null_tracer_census(backend) == {}
