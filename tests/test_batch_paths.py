"""Batched scheduling paths: the open-loop injector and volley dispatch.

Every bulk path is the only path; these tests pin (a) that it produces
the client-visible outcomes of the per-request idiom it replaced —
kept here as test oracles — (b) that batching actually removes engine
events rather than adding them, and (c) that the injector's epoch size
is invisible to every caller.
"""

import random

import pytest

from repro.errors import ConfigError
from repro.experiments.overload import run_overload_trial
from repro.experiments.scale import run_scale_trial
from repro.faas.cluster import FaasCluster
from repro.sim import Environment
from repro.workload import traces
from repro.workload.burst import BurstConfig, BurstWorkload
from repro.workload.fleet import (
    FleetConfig,
    FleetTraceConfig,
    generate,
    run_batched,
    synthesize_fleet_trace,
)
from repro.workload.functions import cpu_bound_function
from repro.workload.keepalive import KeepAliveConfig, replay_keepalive
from repro.workload.traces import (
    PoissonArrivals,
    ZipfPopularity,
    synthesize_trace,
    replay_trace,
)


def _cluster():
    return FaasCluster.with_seuss_node(Environment())


def _functions(count=8, exec_ms=5.0):
    return [
        cpu_bound_function(f"f{index}", exec_ms=exec_ms)
        for index in range(count)
    ]


def _trace(fns, count=400):
    """``(times_ms, function_ids)`` over ``fns``."""
    return synthesize_trace(
        fns,
        PoissonArrivals(200.0, seed=3),
        ZipfPopularity(len(fns), seed=4),
        count,
    )


def _epochs(monkeypatch, size):
    """Set the injector's epoch size for the rest of the test."""
    monkeypatch.setattr(traces, "EPOCH_SIZE", size)


def _serial_replay(cluster, functions, times_ms, function_ids):
    """Oracle: one waiter process and one arrival timeout per arrival,
    each firing ``times_ms[i]`` after the replay starts."""
    env = cluster.env
    results = []

    def fire(offset, fn):
        if offset:
            yield env.timeout(offset)
        results.append((yield cluster.invoke(fn)))

    env.run(
        until=env.all_of(
            [
                env.process(fire(offset, functions[index]))
                for offset, index in zip(times_ms, function_ids)
            ]
        )
    )
    return results


def _outcome_key(results):
    return sorted(
        (r.function_key, round(r.sent_at_ms, 9), round(r.finished_at_ms, 9), r.success)
        for r in results
    )


class TestBatchedReplay:
    def test_outcomes_identical_to_legacy(self, monkeypatch):
        fns = _functions()
        legacy_cluster = _cluster()
        results_legacy = _serial_replay(legacy_cluster, fns, *_trace(fns))
        batched_cluster = _cluster()
        _epochs(monkeypatch, 64)
        results_batched = replay_trace(batched_cluster, fns, *_trace(fns))
        assert _outcome_key(results_legacy) == _outcome_key(results_batched)
        # The batched path must save events, not add them.
        assert (
            batched_cluster.env.events_processed
            < legacy_cluster.env.events_processed
        )

    def test_every_arrival_leaves_at_its_offset_from_the_start(self):
        """Regression: replay once read arrival times as absolute clock
        readings and clamped the past ones at the clock, so on a SEUSS
        cluster (clock 847.4375 ms after boot) 160 of these 400 arrivals
        left at the replay's first instant."""
        cluster = _cluster()
        start = cluster.env.now
        assert start > 0
        times, function_ids = _trace(_functions())
        # One function per arrival, so each result names its arrival.
        fns = _functions(len(times))
        results = replay_trace(cluster, fns, times, range(len(times)))
        offset = {fn.key: at for fn, at in zip(fns, times)}
        assert len(results) == len(times)
        for result in results:
            assert result.sent_at_ms == start + offset[result.function_key]

    def test_single_epoch_and_tiny_epochs_agree(self, monkeypatch):
        fns = _functions()
        _epochs(monkeypatch, 10_000)
        whole = replay_trace(_cluster(), fns, *_trace(fns, count=120))
        _epochs(monkeypatch, 7)
        tiny = replay_trace(_cluster(), fns, *_trace(fns, count=120))
        assert _outcome_key(whole) == _outcome_key(tiny)

    def test_empty_trace(self):
        assert replay_trace(_cluster(), [], [], []) == []

    def test_bad_epoch_size(self, monkeypatch):
        fns = _functions()
        _epochs(monkeypatch, 0)
        with pytest.raises(ConfigError, match="EPOCH_SIZE"):
            replay_trace(_cluster(), fns, *_trace(fns, 10))


class _Boom(RuntimeError):
    pass


class _ExplodingCluster:
    """Cluster stand-in whose marked invocations fail as processes.

    Client-visible failures (``success=False`` results) never raise;
    this models the *engine-level* failure mode — an exception escaping
    an invocation process — which replay must propagate out of
    ``env.run``.
    """

    def __init__(self):
        self.env = Environment()

    def invoke(self, fn):
        def run():
            yield self.env.timeout(1.0)
            if fn.name.endswith("boom"):
                raise _Boom(fn.name)
            return fn.name

        return self.env.process(run())


class TestBatchedReplayFailureParity:
    """A failing invocation process must escape the replay exactly as
    it escapes the serial oracle.  Regression: the batched collector once appended
    ``process.value`` unconditionally — for a failed process that is
    the *exception object*, and when the failure landed on the final
    entry the replay declared itself complete with the exception
    sitting in the results list."""

    def _trace(self, boom_at, count=5):
        """``(functions, times_ms, function_ids)``, one function per
        arrival, the ``boom_at``-th of which fails as a process."""
        fns = _functions(count)
        times, function_ids = synthesize_trace(
            fns,
            PoissonArrivals(100.0, seed=2),
            ZipfPopularity(count, seed=2),
            count,
        )
        from dataclasses import replace

        functions = [fns[index] for index in function_ids]
        functions[boom_at] = replace(functions[boom_at], name=f"{boom_at}boom")
        return functions, times, range(count)

    def test_legacy_and_batched_raise_identically(self, monkeypatch):
        trace = self._trace(boom_at=2)
        with pytest.raises(_Boom) as legacy:
            _serial_replay(_ExplodingCluster(), *trace)
        _epochs(monkeypatch, 2)
        with pytest.raises(_Boom) as batched:
            replay_trace(_ExplodingCluster(), *trace)
        assert str(batched.value) == str(legacy.value)

    def test_failure_on_final_entry_still_raises(self, monkeypatch):
        # The exact shape of the old bug: last entry fails, collector
        # counts it as the completing result, replay "succeeds".
        trace = self._trace(boom_at=4)
        _epochs(monkeypatch, 64)
        with pytest.raises(_Boom):
            replay_trace(_ExplodingCluster(), *trace)


class TestChaosReplayEquivalence:
    def test_faulty_cluster_outcomes_identical(self, monkeypatch):
        """Under fault injection (crashes, corrupt restores, retries)
        the batched replay sees the exact client-visible outcomes of
        the serial replay — including failed requests."""
        from repro.faas.controller import RetryPolicy
        from repro.faults import FaultPlan

        plan = FaultPlan(
            node_crash_p=0.02,
            snapshot_corrupt_restore_p=0.05,
            seed=0xC0A5,
        )

        def cluster():
            return FaasCluster.with_seuss_node(
                Environment(),
                faults=plan,
                retries=RetryPolicy(max_attempts=2),
            )

        fns = _functions()
        trace = _trace(fns, count=300)
        legacy = _serial_replay(cluster(), fns, *trace)
        _epochs(monkeypatch, 64)
        batched = replay_trace(cluster(), fns, *trace)
        assert len(legacy) == len(batched) == 300
        assert _outcome_key(legacy) == _outcome_key(batched)


class TestOpenLoopTrial:
    """An open-loop trial is a replay of a Poisson arrival trace."""

    def test_completes_all_invocations(self, monkeypatch):
        fns = _functions()
        _epochs(monkeypatch, 97)
        results = replay_trace(
            _cluster(),
            fns,
            *synthesize_trace(
                fns,
                PoissonArrivals(300.0, seed=5),
                ZipfPopularity(8, seed=5),
                300,
            ),
        )
        assert len(results) == 300
        assert all(r.success for r in results)
        # Arrivals are open-loop: sends do not wait for completions, so
        # the send timeline is the Poisson one (~1 s for 300 @ 300/s).
        sent = [r.sent_at_ms for r in results]
        assert max(sent) - min(sent) < 3_000.0

    def test_deterministic_across_epoch_sizes(self, monkeypatch):
        fns = _functions()
        trace = _trace(fns, count=150)
        _epochs(monkeypatch, 11)
        a = replay_trace(_cluster(), fns, *trace)
        _epochs(monkeypatch, 150)
        b = replay_trace(_cluster(), fns, *trace)
        assert _outcome_key(a) == _outcome_key(b)

    def test_validation(self, monkeypatch):
        with pytest.raises(ConfigError):
            _trace([], count=10)
        with pytest.raises(ConfigError):
            PoissonArrivals(0.0)
        fns = _functions()
        _epochs(monkeypatch, 0)
        with pytest.raises(ConfigError):
            replay_trace(_cluster(), fns, *_trace(fns, 10))


class TestVolleyDispatch:
    def test_invoke_batch_matches_individual_invokes(self):
        fn = _functions(1)[0]
        batched_cluster = _cluster()
        procs = batched_cluster.invoke_batch([fn] * 24)
        batched_cluster.env.run(until=batched_cluster.env.all_of(procs))
        plain_cluster = _cluster()
        singles = [plain_cluster.invoke(fn) for _ in range(24)]
        plain_cluster.env.run(until=plain_cluster.env.all_of(singles))
        assert [
            (p.value.function_key, p.value.sent_at_ms, p.value.finished_at_ms)
            for p in procs
        ] == [
            (p.value.function_key, p.value.sent_at_ms, p.value.finished_at_ms)
            for p in singles
        ]
        assert (
            batched_cluster.env.events_processed
            < plain_cluster.env.events_processed
        )

    def test_sharded_invoke_batch_matches_individual_invokes(self):
        """A sharded volley rides one dispatch tick per shard."""
        fns = _functions(12)
        batched_cluster = FaasCluster.with_seuss_node(Environment(), shards=3)
        procs = batched_cluster.invoke_batch(fns)
        batched_cluster.env.run(until=batched_cluster.env.all_of(procs))
        plain_cluster = FaasCluster.with_seuss_node(Environment(), shards=3)
        singles = [plain_cluster.invoke(fn) for fn in fns]
        plain_cluster.env.run(until=plain_cluster.env.all_of(singles))
        assert [
            (p.value.function_key, p.value.sent_at_ms, p.value.finished_at_ms)
            for p in procs
        ] == [
            (p.value.function_key, p.value.sent_at_ms, p.value.finished_at_ms)
            for p in singles
        ]
        plane = batched_cluster.control_plane
        assert plane.dispatch_counts() == (
            plain_cluster.control_plane.dispatch_counts()
        )
        assert sum(1 for count in plane.dispatch_counts().values() if count) > 1
        assert (
            batched_cluster.env.events_processed
            < plain_cluster.env.events_processed
        )

    def test_invoke_batch_empty(self):
        assert _cluster().invoke_batch([]) == []

    def test_burst_workload_batched_dispatch_identical_results(self):
        def run(serial):
            cluster = _cluster()
            if serial:
                # Oracle: every volley request dispatched individually.
                cluster.invoke_batch = lambda fns: [cluster.invoke(fn) for fn in fns]
            config = BurstConfig(
                burst_interval_ms=2_000.0,
                burst_count=2,
                burst_size=16,
                background_workers=8,
                background_functions=4,
                warmup_ms=500.0,
            )
            result = BurstWorkload(config).run(cluster)
            return result, cluster.env.events_processed

        # The volley shares one dispatch tick; every latency observable
        # in the figures must still be identical because the tick fires
        # at the same instant the per-request timeouts did.
        legacy, legacy_events = run(serial=True)
        batched, batched_events = run(serial=False)
        assert legacy.points() == batched.points()
        assert batched_events < legacy_events


class TestFleetDrivers:
    def test_drivers_observe_identical_workload(self, monkeypatch):
        """The batched driver against the per-arrival-process oracle."""
        workload = generate(FleetConfig(arrivals=3_000))
        env = Environment()
        counts = [0] * workload.config.functions
        completed = []

        def fire(at, index, service):
            yield env.timeout(at - env.now)
            counts[index] += 1
            yield env.timeout(service)
            completed.append(index)

        for at, index, service in zip(
            workload.arrival_times_ms,
            workload.function_indices,
            workload.service_times_ms,
        ):
            env.process(fire(at, index, service))
        env.run()
        _epochs(monkeypatch, 1_000)
        batched = run_batched(workload)
        assert batched.function_counts == counts
        assert batched.final_ms == env.now
        assert batched.completions == len(completed) == 3_000
        # Batching halves the engine events (2 vs 4 per arrival).
        assert batched.engine_events < env.events_processed
        assert batched.events_per_arrival < 2.5


def _replay_outcome():
    fns = _functions()
    return _outcome_key(replay_trace(_cluster(), fns, *_trace(fns, count=120)))


def _trial_outcome(trial):
    recorder, report, elapsed_ms = trial
    return (
        [
            (r.function_key, r.sent_at_ms, r.finished_at_ms, r.success, r.path)
            for r in recorder.results
        ],
        elapsed_ms,
        report,
    )


def _scale_outcome():
    return _trial_outcome(
        run_scale_trial(2, 2, "snapshot_affinity", 100.0, 300.0, seed=0x5CA1E)
    )


def _overload_outcome():
    return _trial_outcome(
        run_overload_trial(2.0, 400.0, controlled=True, seed=0x10AD)
    )


def _keepalive_outcome():
    trace = synthesize_fleet_trace(
        FleetTraceConfig(functions=500, duration_ms=120_000.0, seed=0xABC)
    )
    return replay_keepalive(
        trace, KeepAliveConfig(policy="hybrid", memory_budget_mb=512.0)
    )


def _fleet_outcome():
    return run_batched(generate(FleetConfig(arrivals=2_000)))


class TestEpochSizeIsInvisible:
    """Every caller of the injector sees the same outcomes whatever its
    epoch size: one arrival per epoch, 7, or the whole stream in one."""

    @pytest.mark.parametrize(
        "outcome",
        [
            _replay_outcome,
            _scale_outcome,
            _overload_outcome,
            _keepalive_outcome,
            _fleet_outcome,
        ],
        ids=["replay_trace", "scale", "overload", "keepalive", "fleet"],
    )
    def test_every_caller(self, monkeypatch, outcome):
        outcomes = []
        for size in (1, 7, 10**9):
            _epochs(monkeypatch, size)
            outcomes.append(outcome())
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestTimeoutBatchCallback:
    def test_callback_preseeded_equals_appended(self):
        from repro.sim import Environment

        fired_a, fired_b = [], []
        env_a = Environment()
        for t in env_a.timeout_batch([1.0, 2.0, 5.0]):
            t.callbacks.append(lambda e: fired_a.append(env_a.now))
        env_a.run()
        env_b = Environment()
        env_b.timeout_batch(
            [1.0, 2.0, 5.0], callback=lambda e: fired_b.append(env_b.now)
        )
        env_b.run()
        assert fired_a == fired_b == [1.0, 2.0, 5.0]
        assert env_a.events_processed == env_b.events_processed
