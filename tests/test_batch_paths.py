"""Batched scheduling paths: replay, open-loop trials, volley dispatch.

Every bulk path is the only path; these tests pin (a) that it produces
the client-visible outcomes of the per-request idiom it replaced —
kept here as test oracles — and (b) that batching actually removes
engine events rather than adding them.
"""

import pytest

from repro.errors import ConfigError
from repro.faas.cluster import FaasCluster
from repro.sim import Environment
from repro.workload.burst import BurstConfig, BurstWorkload
from repro.workload.functions import cpu_bound_function
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
    return synthesize_trace(
        fns,
        PoissonArrivals(200.0, seed=3),
        ZipfPopularity(len(fns), seed=4),
        count,
    )


def _serial_replay(cluster, trace):
    """Oracle: one waiter process and one arrival timeout per entry."""
    env = cluster.env
    results = []

    def fire(entry):
        delay = max(0.0, entry.at_ms - env.now)
        if delay:
            yield env.timeout(delay)
        results.append((yield cluster.invoke(entry.function)))

    env.run(until=env.all_of([env.process(fire(entry)) for entry in trace]))
    return results


def _outcome_key(results):
    return sorted(
        (r.function_key, round(r.sent_at_ms, 9), round(r.finished_at_ms, 9), r.success)
        for r in results
    )


class TestBatchedReplay:
    def test_outcomes_identical_to_legacy(self):
        legacy_cluster = _cluster()
        results_legacy = _serial_replay(legacy_cluster, _trace(_functions()))
        batched_cluster = _cluster()
        results_batched = replay_trace(
            batched_cluster, _trace(_functions()), epoch_size=64
        )
        assert _outcome_key(results_legacy) == _outcome_key(results_batched)
        # The batched path must save events, not add them.
        assert (
            batched_cluster.env.events_processed
            < legacy_cluster.env.events_processed
        )

    def test_single_epoch_and_tiny_epochs_agree(self):
        whole = replay_trace(
            _cluster(), _trace(_functions(), count=120), epoch_size=10_000
        )
        tiny = replay_trace(
            _cluster(), _trace(_functions(), count=120), epoch_size=7
        )
        assert _outcome_key(whole) == _outcome_key(tiny)

    def test_empty_trace(self):
        assert replay_trace(_cluster(), []) == []

    def test_bad_epoch_size(self):
        with pytest.raises(ConfigError, match="epoch_size"):
            replay_trace(_cluster(), _trace(_functions(), 10), epoch_size=0)


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
        fns = _functions(count)
        entries = synthesize_trace(
            fns,
            PoissonArrivals(100.0, seed=2),
            ZipfPopularity(count, seed=2),
            count,
        )
        from dataclasses import replace

        boom = replace(
            entries[boom_at].function, name=f"{boom_at}boom"
        )
        entries[boom_at] = type(entries[boom_at])(
            at_ms=entries[boom_at].at_ms, function=boom
        )
        return entries

    def test_legacy_and_batched_raise_identically(self):
        trace = self._trace(boom_at=2)
        with pytest.raises(_Boom) as legacy:
            _serial_replay(_ExplodingCluster(), trace)
        with pytest.raises(_Boom) as batched:
            replay_trace(_ExplodingCluster(), trace, epoch_size=2)
        assert str(batched.value) == str(legacy.value)

    def test_failure_on_final_entry_still_raises(self):
        # The exact shape of the old bug: last entry fails, collector
        # counts it as the completing result, replay "succeeds".
        trace = self._trace(boom_at=4)
        with pytest.raises(_Boom):
            replay_trace(_ExplodingCluster(), trace, epoch_size=64)


class TestChaosReplayEquivalence:
    def test_faulty_cluster_outcomes_identical(self):
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

        trace = _trace(_functions(), count=300)
        legacy = _serial_replay(cluster(), trace)
        batched = replay_trace(cluster(), trace, epoch_size=64)
        assert len(legacy) == len(batched) == 300
        assert _outcome_key(legacy) == _outcome_key(batched)


class TestOpenLoopTrial:
    """An open-loop trial is a replay of a Poisson arrival trace."""

    def test_completes_all_invocations(self):
        results = replay_trace(
            _cluster(),
            synthesize_trace(
                _functions(),
                PoissonArrivals(300.0, seed=5),
                ZipfPopularity(8, seed=5),
                300,
            ),
            epoch_size=97,
        )
        assert len(results) == 300
        assert all(r.success for r in results)
        # Arrivals are open-loop: sends do not wait for completions, so
        # the send timeline is the Poisson one (~1 s for 300 @ 300/s).
        sent = [r.sent_at_ms for r in results]
        assert max(sent) - min(sent) < 3_000.0

    def test_deterministic_across_epoch_sizes(self):
        trace = _trace(_functions(), count=150)
        a = replay_trace(_cluster(), trace, epoch_size=11)
        b = replay_trace(_cluster(), trace, epoch_size=150)
        assert _outcome_key(a) == _outcome_key(b)

    def test_validation(self):
        with pytest.raises(ConfigError):
            _trace([], count=10)
        with pytest.raises(ConfigError):
            PoissonArrivals(0.0)
        with pytest.raises(ConfigError):
            replay_trace(_cluster(), _trace(_functions(), 10), epoch_size=0)


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
    def _workload(self, arrivals=3_000):
        from repro.workload.fleet import FleetConfig, generate

        return generate(FleetConfig(arrivals=arrivals, epoch_size=1_000))

    def test_drivers_observe_identical_workload(self):
        """The batched driver against the per-arrival-process oracle."""
        from repro.workload.fleet import run_batched

        workload = self._workload()
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
        batched = run_batched(workload)
        assert batched.function_counts == counts
        assert batched.final_ms == env.now
        assert batched.completions == len(completed) == 3_000
        # Batching halves the engine events (2 vs 4 per arrival).
        assert batched.engine_events < env.events_processed
        assert batched.events_per_arrival < 2.5


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
