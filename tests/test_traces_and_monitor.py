"""Trace-workload and monitor tests."""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right

import pytest

from repro.errors import ConfigError
from repro.faas.cluster import FaasCluster
from repro.metrics.monitor import Monitor
from repro.metrics.stats import mean
from repro.sim import Environment
from repro.workload.functions import unique_nop_set
from repro.workload.traces import (
    ModulatedArrivals,
    PoissonArrivals,
    ZipfPopularity,
    replay_trace,
    synthesize_trace,
)


class TestArrivals:
    def test_poisson_mean_gap(self):
        arrivals = PoissonArrivals(rate_per_s=100.0, seed=42)
        times = arrivals.arrival_times(5000)
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert mean(gaps) == pytest.approx(10.0, rel=0.1)  # 100/s => 10 ms

    def test_poisson_deterministic_per_seed(self):
        first = PoissonArrivals(50.0, seed=7).arrival_times(100)
        second = PoissonArrivals(50.0, seed=7).arrival_times(100)
        assert first == second

    def test_arrival_times_monotone(self):
        times = PoissonArrivals(10.0, seed=1).arrival_times(200)
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_modulated_peak_density(self):
        arrivals = ModulatedArrivals(
            base_rate_per_s=10.0,
            peak_rate_per_s=200.0,
            period_ms=10_000.0,
            peak_fraction=0.2,
            seed=3,
        )
        times = arrivals.arrival_times(4000)
        in_peak = sum(1 for t in times if (t % 10_000.0) / 10_000.0 < 0.2)
        # The peak window carries most of the traffic.
        assert in_peak / len(times) > 0.6

    def test_validation(self):
        with pytest.raises(ConfigError):
            PoissonArrivals(0.0)
        with pytest.raises(ConfigError):
            ModulatedArrivals(1.0, 2.0, 100.0, peak_fraction=1.5)
        with pytest.raises(ConfigError):
            PoissonArrivals(1.0).arrival_times(-1)
        with pytest.raises(ConfigError):
            PoissonArrivals(1.0).arrival_times_until(5.0, start_ms=10.0)

    def test_modulated_gaps_respect_start_phase(self):
        """Regression: ``gaps`` once reset the burst phase to the
        period origin, so a stream started off-peak drew peak-rate
        gaps.  The first gap must come from the rate at ``start_ms``."""
        arrivals = ModulatedArrivals(
            base_rate_per_s=1.0,
            peak_rate_per_s=1000.0,
            period_ms=10_000.0,
            peak_fraction=0.2,
            seed=11,
        )
        # Phase 0.5 is off-peak: the first gap is a base-rate draw
        # (mean 1000 ms), not a peak-rate draw (mean 1 ms).
        first = next(arrivals.gaps(start_ms=5_000.0))
        expected = random.Random(11).expovariate(1.0 / 1_000.0)
        assert first == expected

    def test_arrival_times_until_segments_stitch(self):
        """Consecutive segment draws continue one RNG stream and
        partition the timeline at the boundary."""
        process = PoissonArrivals(100.0, seed=5)
        seg1 = process.arrival_times_until(1_000.0)
        seg2 = process.arrival_times_until(2_000.0, start_ms=1_000.0)
        assert seg1 and seg2
        assert all(0.0 < t <= 1_000.0 for t in seg1)
        assert all(1_000.0 < t <= 2_000.0 for t in seg2)
        combined = seg1 + seg2
        assert combined == sorted(combined)
        # Deterministic per seed, segment by segment.
        replay = PoissonArrivals(100.0, seed=5)
        assert replay.arrival_times_until(1_000.0) == seg1
        assert (
            replay.arrival_times_until(2_000.0, start_ms=1_000.0) == seg2
        )

    def test_modulated_segments_keep_peak_position(self):
        """A stitched modulated trace keeps its peaks where the clock
        says, not where segment boundaries restart them."""
        arrivals = ModulatedArrivals(
            base_rate_per_s=10.0,
            peak_rate_per_s=500.0,
            period_ms=10_000.0,
            peak_fraction=0.2,
            seed=3,
        )
        times = []
        for start in range(0, 40_000, 2_500):  # segments cut mid-period
            times.extend(
                arrivals.arrival_times_until(start + 2_500.0, start_ms=start)
            )
        assert times == sorted(times)
        in_peak = sum(1 for t in times if (t % 10_000.0) / 10_000.0 < 0.2)
        assert in_peak / len(times) > 0.6


class TestZipf:
    def test_head_dominates(self):
        popularity = ZipfPopularity(function_count=1000, exponent=1.1)
        assert popularity.head_share(10) > 0.35

    def test_samples_follow_weights(self):
        popularity = ZipfPopularity(function_count=50, exponent=1.2)
        indices = popularity.sample(random.Random(5), 20_000)
        top = sum(1 for i in indices if i == 0) / len(indices)
        assert top == pytest.approx(popularity.weights()[0] / sum(popularity.weights()), rel=0.15)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ZipfPopularity(function_count=0)
        with pytest.raises(ConfigError):
            ZipfPopularity(function_count=5, exponent=0)
        with pytest.raises(ConfigError):
            ZipfPopularity(function_count=5, seed=1).sample(random.Random(1), -1)

    def test_draws_resume_across_calls(self):
        """Regression: the trace sampler once re-seeded per call, so
        every call replayed the identical index sequence.  Consecutive
        draws on one RNG — and consecutive traces from one popularity —
        must continue one stream and concatenate to one larger draw."""
        popularity = ZipfPopularity(function_count=50, exponent=1.1, seed=8)
        rng = random.Random(8)
        first = popularity.sample(rng, 500)
        second = popularity.sample(rng, 500)
        assert first != second  # the old bug: first == second
        assert first + second == popularity.sample(random.Random(8), 1000)
        functions = unique_nop_set(50)
        arrivals = PoissonArrivals(10.0, seed=8)
        _, trace_first = synthesize_trace(functions, arrivals, popularity, 500)
        _, trace_second = synthesize_trace(functions, arrivals, popularity, 500)
        assert trace_first + trace_second == first + second

    def test_first_call_matches_historical_output(self):
        """The first draw is byte-identical to the historical re-seeded
        implementation (existing single-call traces are unchanged)."""
        popularity = ZipfPopularity(function_count=50, exponent=1.1, seed=8)
        historical = random.Random(8).choices(
            range(50), weights=popularity.weights(), k=200
        )
        assert popularity.sample(random.Random(8), 200) == historical
        _, function_ids = synthesize_trace(
            unique_nop_set(50), PoissonArrivals(10.0), popularity, 200
        )
        assert function_ids == historical

    def test_stream_is_independent_and_counts(self):
        popularity = ZipfPopularity(function_count=20, exponent=1.2, seed=6)
        rng = random.Random(6)
        a = popularity.sample(rng, 3)
        b = popularity.sample(rng, 7)
        assert (len(a), len(b)) == (3, 7)
        assert a + b == popularity.sample(random.Random(6), 10)
        # A caller's RNG is independent of the popularity's own stream,
        # which synthesize_trace draws from.
        _, function_ids = synthesize_trace(
            unique_nop_set(20), PoissonArrivals(10.0), popularity, 3
        )
        assert function_ids == a

    @pytest.mark.parametrize(
        "count, exponent, seed",
        [(36, 1.2, 0x5CA1E), (10_000, 1.1, 0xF1EE7), (50, 1.05, 7)],
    )
    def test_one_sampler_matches_the_samplers_it_replaced(
        self, count, exponent, seed
    ):
        """``ZipfPopularity.sample`` against the three samplers it
        replaced, each kept inline as the oracle, drawing from the same
        RNG state."""
        draws = 20_000
        popularity = ZipfPopularity(count, exponent, seed=seed)
        ours = popularity.sample(random.Random(seed), draws)
        # The scale experiment's CDF + bisect sampler.
        rng = random.Random(seed)
        cdf = []
        total = 0.0
        for weight in [1.0 / (rank**exponent) for rank in range(1, count + 1)]:
            total += weight
            cdf.append(total)
        assert ours == [
            bisect_right(cdf, rng.random() * total) for _ in range(draws)
        ]
        # The fleet generator's inline weights.
        weights = [1.0 / pow(rank, exponent) for rank in range(1, count + 1)]
        assert ours == random.Random(seed).choices(
            range(count), weights=weights, k=draws
        )
        # The old per-seed stream: pre-accumulated weights, one RNG
        # seeded with the popularity's seed, drawn in two takes.
        rng = random.Random(seed)
        cum_weights = list(itertools.accumulate(popularity.weights()))
        stream = [
            rng.choices(range(count), cum_weights=cum_weights, k=take)
            for take in (draws // 3, draws - draws // 3)
        ]
        assert ours == stream[0] + stream[1]


class TestTraceReplay:
    def test_synthesize_and_replay(self):
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env)
        functions = unique_nop_set(16)
        times, function_ids = synthesize_trace(
            functions,
            PoissonArrivals(rate_per_s=50.0, seed=9),
            ZipfPopularity(function_count=16, exponent=1.1, seed=9),
            count=300,
        )
        assert len(times) == len(function_ids) == 300
        results = replay_trace(cluster, functions, times, function_ids)
        assert len(results) == 300
        assert all(r.success for r in results)
        # Zipf skew: the most popular function dominates and runs hot.
        hot = sum(1 for r in results if r.path.value == "hot")
        assert hot > 200

    def test_function_count_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            synthesize_trace(
                unique_nop_set(4),
                PoissonArrivals(10.0),
                ZipfPopularity(function_count=5),
                count=10,
            )

    def test_replay_in_flight_exceeds_closed_loop(self):
        """A trace replay can have unbounded in-flight requests."""
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env)
        functions = unique_nop_set(4)
        # 64 requests all at t=0: open loop fires them simultaneously.
        times, function_ids = synthesize_trace(
            functions,
            PoissonArrivals(rate_per_s=1e6, seed=1),
            ZipfPopularity(function_count=4, seed=1),
            count=64,
        )
        results = replay_trace(cluster, functions, times, function_ids)
        assert len(results) == 64


class TestMonitor:
    def test_sampling_interval(self, env):
        counter = {"n": 0}

        def probe():
            counter["n"] += 1
            return counter["n"]

        monitor = Monitor(env, probe, interval_ms=100.0).start()
        env.run(until=1000.0)
        monitor.stop()
        assert 10 <= len(monitor) <= 11
        assert monitor.values()[0] == 1

    def test_series_queries(self, env):
        values = iter([5.0, 10.0, 3.0])
        monitor = Monitor(env, lambda: next(values), interval_ms=10.0).start()
        env.run(until=25.0)
        monitor.stop()
        env.run()
        assert monitor.max() == 10.0
        assert monitor.min() == 3.0
        assert monitor.value_at(15.0) == 10.0
        assert monitor.first_time_reaching(10.0) == 10.0
        assert monitor.first_time_reaching(99.0) is None

    def test_monitor_on_live_node(self, seuss_node):
        from repro.workload.functions import cpu_bound_function

        env = seuss_node.env
        monitor = Monitor(
            env,
            lambda: len(seuss_node.uc_cache),
            interval_ms=50.0,
            name="idle-ucs",
        ).start()
        procs = [
            seuss_node.invoke(cpu_bound_function(f"m{i}", exec_ms=20.0))
            for i in range(8)
        ]
        env.run(until=env.all_of(procs))
        env.run(until=env.now + 100.0)  # let one more sample land
        monitor.stop()
        env.run()
        assert monitor.max() >= 1  # idle UCs appeared as work completed

    def test_invalid_interval(self, env):
        with pytest.raises(ValueError):
            Monitor(env, lambda: 0.0, interval_ms=0)

    def test_empty_series_rejects_extrema(self, env):
        monitor = Monitor(env, lambda: 1.0)
        with pytest.raises(ValueError):
            monitor.max()
