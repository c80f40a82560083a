"""Fleet-trace synthesizer and keep-alive policy-lab tests.

Two layers under test: :func:`synthesize_fleet_trace` must build a
deterministic, diurnal, Zipf-skewed trace with the declared CV-class
structure, and :func:`replay_keepalive` must replay it against each
policy with exact accounting (every arrival is a cold or a warm start,
memory integrals are consistent, epoch size is invisible).  The
acceptance scenario — a learned policy beating seed LRU on cold-start
rate at equal memory — carries the ``keepalive`` marker.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.workload import traces
from repro.workload.fleet import (
    CLASS_PERIODIC,
    FleetTrace,
    FleetTraceConfig,
    synthesize_fleet_trace,
)
from repro.workload.keepalive import (
    KeepAliveConfig,
    race_policies,
    replay_keepalive,
)

SMALL = FleetTraceConfig(
    functions=2_000,
    duration_ms=300_000.0,
    segment_ms=60_000.0,
    seed=0xABC,
)


@pytest.fixture(scope="module")
def trace() -> FleetTrace:
    return synthesize_fleet_trace(SMALL)


@pytest.fixture(scope="module")
def slow_timer_trace() -> FleetTrace:
    """A longer, sparser trace whose timer periods (2.5–10 min) give the
    histogram policy enough ≥2-bucket idle gaps to learn pre-warm
    windows — impossible in the 5-minute ``SMALL`` trace."""
    return synthesize_fleet_trace(
        FleetTraceConfig(
            functions=300,
            duration_ms=1_800_000.0,
            segment_ms=600_000.0,
            base_rate_per_s=5.0,
            peak_rate_per_s=15.0,
            periodic_share=0.5,
            bursty_share=0.2,
            period_min_ms=150_000.0,
            period_max_ms=600_000.0,
            seed=7,
        )
    )


class TestFleetTraceSynthesis:
    def test_deterministic_per_seed(self, trace):
        again = synthesize_fleet_trace(SMALL)
        assert again.times_ms == trace.times_ms
        assert again.function_ids == trace.function_ids
        assert again.sizes_mb == trace.sizes_mb
        other = synthesize_fleet_trace(
            FleetTraceConfig(
                functions=2_000,
                duration_ms=300_000.0,
                segment_ms=60_000.0,
                seed=0xDEF,
            )
        )
        assert other.times_ms != trace.times_ms

    def test_times_sorted_within_duration(self, trace):
        assert trace.times_ms == sorted(trace.times_ms)
        assert all(0.0 <= t <= SMALL.duration_ms for t in trace.times_ms)
        assert trace.arrivals == len(trace.function_ids)
        assert trace.segments == 5  # 300 s / 60 s stitched segments

    def test_class_population_matches_shares(self, trace):
        periodic = sum(1 for c in trace.classes if c == CLASS_PERIODIC)
        assert periodic / SMALL.functions == pytest.approx(
            SMALL.periodic_share, abs=0.03
        )
        counts = trace.class_counts()
        assert set(counts) == {"poisson", "periodic", "bursty"}
        assert sum(counts.values()) == trace.arrivals
        assert min(counts.values()) > 0

    def test_popularity_is_skewed(self, trace):
        # Zipf head: the 100 busiest of 2000 functions dominate the
        # pooled traffic.
        assert trace.head_share(100) > 0.35
        assert trace.distinct_functions() <= SMALL.functions

    def test_periodic_functions_tick_regularly(self, slow_timer_trace):
        trace = slow_timer_trace
        by_fn = {}
        for t, fn in zip(trace.times_ms, trace.function_ids):
            by_fn.setdefault(fn, []).append(t)
        checked = 0
        for fn, times in by_fn.items():
            if trace.classes[fn] != CLASS_PERIODIC or len(times) < 4:
                continue
            gaps = [b - a for a, b in zip(times, times[1:])]
            mean = sum(gaps) / len(gaps)
            # Jitter CV 0.1: every gap within ~half the mean period.
            assert all(abs(g - mean) < 0.5 * mean for g in gaps)
            checked += 1
        assert checked > 10

    def test_per_function_metadata_in_bounds(self, trace):
        assert len(trace.sizes_mb) == SMALL.functions
        assert all(
            SMALL.size_min_mb <= s <= SMALL.size_max_mb
            for s in trace.sizes_mb
        )
        assert all(
            SMALL.exec_min_ms <= e <= SMALL.exec_max_ms
            for e in trace.exec_ms
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            FleetTraceConfig(functions=0)
        with pytest.raises(ConfigError):
            FleetTraceConfig(peak_fraction=1.0)
        with pytest.raises(ConfigError):
            FleetTraceConfig(periodic_share=0.6, bursty_share=0.5)
        with pytest.raises(ConfigError):
            FleetTraceConfig(period_min_ms=100.0, period_max_ms=50.0)


class TestKeepAliveReplay:
    def test_accounting_is_exact(self, trace):
        result = replay_keepalive(
            trace, KeepAliveConfig(policy="lru", memory_budget_mb=2_048.0)
        )
        assert result.arrivals == trace.arrivals
        assert result.cold_starts + result.warm_starts == result.arrivals
        assert result.cold_starts > 0 and result.warm_starts > 0
        assert 0.0 < result.cold_rate < 1.0
        assert result.cold_rate + result.warm_rate == pytest.approx(1.0)
        assert 0.0 < result.avg_resident_mb <= result.peak_resident_mb

    def test_deterministic(self, trace):
        config = KeepAliveConfig(policy="hybrid", memory_budget_mb=1_024.0)
        first = replay_keepalive(trace, config)
        second = replay_keepalive(trace, config)
        assert first == second

    def test_epoch_size_is_invisible(self, trace, monkeypatch):
        config = KeepAliveConfig(policy="greedy_dual", memory_budget_mb=1_024.0)
        monkeypatch.setattr(traces, "EPOCH_SIZE", 37)
        tiny = replay_keepalive(trace, config)
        monkeypatch.setattr(traces, "EPOCH_SIZE", 1_000_000)
        huge = replay_keepalive(trace, config)
        assert tiny == huge

    def test_budget_is_respected_or_reported(self, trace):
        result = replay_keepalive(
            trace, KeepAliveConfig(policy="lru", memory_budget_mb=512.0)
        )
        # Either the peak stayed within budget, or every breach was
        # counted as an overcommit (all-busy corner).
        if result.peak_resident_mb > 512.0:
            assert result.overcommits > 0
        assert result.evictions > 0

    def test_generous_budget_never_evicts(self, trace):
        result = replay_keepalive(
            trace, KeepAliveConfig(policy="lifo", memory_budget_mb=1e9)
        )
        assert result.evictions == 0
        assert result.overcommits == 0

    def test_hybrid_prewarms(self, slow_timer_trace):
        result = replay_keepalive(
            slow_timer_trace,
            KeepAliveConfig(policy="hybrid", memory_budget_mb=2_048.0),
        )
        assert result.prewarms > 0
        assert result.prewarm_hits > 0
        assert result.prewarm_wasted_ms >= 0.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            KeepAliveConfig(memory_budget_mb=0.0)
        with pytest.raises(ConfigError):
            KeepAliveConfig(cold_start_ms=-1.0)


@pytest.mark.keepalive
class TestPolicyRace:
    """The headline claim, at test scale: a learned keep-alive policy
    beats the seed LRU discipline on cold-start rate at equal memory."""

    def test_learned_policy_beats_lru_at_equal_budget(self, trace):
        results = race_policies(
            trace,
            policies=["lru", "hybrid", "greedy_dual"],
            budgets_mb=[2_048.0],
        )
        by_policy = {r.policy: r for r in results}
        lru = by_policy["lru"].cold_rate
        best_learned = min(
            by_policy["hybrid"].cold_rate,
            by_policy["greedy_dual"].cold_rate,
        )
        assert best_learned < lru

    def test_race_covers_every_pair(self, trace):
        results = race_policies(
            trace, policies=["lru", "lifo"], budgets_mb=[512.0, 1_024.0]
        )
        assert [(r.policy, r.budget_mb) for r in results] == [
            ("lru", 512.0),
            ("lifo", 512.0),
            ("lru", 1_024.0),
            ("lifo", 1_024.0),
        ]

    def test_more_memory_never_hurts_lru(self, trace):
        results = race_policies(
            trace, policies=["lru"], budgets_mb=[512.0, 2_048.0, 8_192.0]
        )
        rates = [r.cold_rate for r in results]
        assert rates[0] >= rates[1] >= rates[2]


class TestKeepAliveExperiment:
    def test_registered_with_profiles(self):
        from repro.experiments import load_all

        spec = load_all().get("keepalive")
        assert spec.title
        assert {"full", "quick", "smoke"} <= set(spec.profile_names)
        assert spec.accepts_seed()

    @pytest.mark.keepalive
    def test_smoke_profile_runs_and_reports_curves(self):
        from repro.experiments import load_all

        result = load_all().get("keepalive").run(profile="smoke")
        text = result.to_text()
        for name in ("lru", "lifo", "hybrid", "greedy_dual"):
            assert name in text
        curves = result.raw["curves"]
        assert set(curves) == {"lru", "lifo", "hybrid", "greedy_dual"}
        for points in curves.values():
            assert all(0.0 <= rate <= 1.0 for _, rate in points)
