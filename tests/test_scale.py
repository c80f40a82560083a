"""Acceptance criteria for the ``scale`` experiment (``-m scale``).

Fixed seed, deterministic: the sharded control plane must actually buy
what the experiment claims — throughput past the single-shim ceiling
when shards multiply, and >= 70% snapshot locality under the Zipf mix
with affinity routing on.
"""

from __future__ import annotations

import random

import pytest

from repro.experiments.scale import (
    FUNCTION_COUNT,
    POPULARITY,
    run_scale,
    run_scale_trial,
    shard_ceiling_rps,
)

pytestmark = pytest.mark.scale

NODES = 4
HIGH_RPS = 240.0
DURATION_MS = 600.0
SEED = 0x5CA1E


def _throughput(recorder, elapsed_ms):
    completed = sum(1 for r in recorder.results if r.success)
    return completed * 1000.0 / elapsed_ms


@pytest.fixture(scope="module")
def single_shard():
    return run_scale_trial(
        NODES, 1, "snapshot_affinity", HIGH_RPS, DURATION_MS, seed=SEED
    )


@pytest.fixture(scope="module")
def four_shards():
    return run_scale_trial(
        NODES, 4, "snapshot_affinity", HIGH_RPS, DURATION_MS, seed=SEED
    )


class TestThroughputScaling:
    def test_single_shard_pins_the_shim_ceiling(self, single_shard):
        recorder, _report, elapsed_ms = single_shard
        throughput = _throughput(recorder, elapsed_ms)
        # Offered load is ~2x the one-shim ceiling; a single shard must
        # not exceed the ceiling the cost book implies.
        assert throughput <= shard_ceiling_rps() * 1.02

    def test_multi_shard_beats_single_shard_at_high_load(
        self, single_shard, four_shards
    ):
        single = _throughput(single_shard[0], single_shard[2])
        multi = _throughput(four_shards[0], four_shards[2])
        assert multi > single * 1.2  # well clear of noise, not epsilon

    def test_everything_completes_eventually(self, four_shards):
        recorder, _report, _elapsed = four_shards
        assert all(r.success for r in recorder.results)


class TestLocality:
    def test_affinity_locality_meets_the_bar(self, four_shards):
        _recorder, report, _elapsed = four_shards
        assert report.locality_hits + report.locality_misses > 0
        assert report.locality_hit_rate >= 0.70

    def test_round_robin_records_no_locality_decisions(self):
        _recorder, report, _elapsed = run_scale_trial(
            2, 2, "round_robin", 100.0, 300.0, seed=SEED
        )
        assert report.locality_hits == 0
        assert report.locality_misses == 0
        assert report.route_decisions > 0

    def test_trials_are_deterministic(self):
        first = run_scale_trial(
            2, 2, "snapshot_affinity", 100.0, 300.0, seed=SEED
        )
        second = run_scale_trial(
            2, 2, "snapshot_affinity", 100.0, 300.0, seed=SEED
        )
        fp = lambda rec: [  # noqa: E731
            (r.sent_at_ms, r.finished_at_ms, r.success) for r in rec.results
        ]
        assert fp(first[0]) == fp(second[0])
        assert first[1].locality_hits == second[1].locality_hits
        assert first[1].shard_dispatch == second[1].shard_dispatch


class TestZipfMix:
    def test_weights_are_head_heavy(self):
        weights = POPULARITY.weights()
        assert len(weights) == FUNCTION_COUNT
        assert weights[0] > 10 * weights[-1]
        assert weights == sorted(weights, reverse=True)

    def test_sampler_is_seeded_and_skewed(self):
        rng = random.Random(1)
        counts = {}
        for _ in range(5000):
            index = POPULARITY.sample(rng)[0]
            assert 0 <= index < FUNCTION_COUNT
            counts[index] = counts.get(index, 0) + 1
        assert counts[0] > counts.get(FUNCTION_COUNT - 1, 0)
        again = random.Random(1)
        once_more = random.Random(1)
        assert [POPULARITY.sample(again)[0] for _ in range(50)] == (
            POPULARITY.sample(once_more, 50)
        )


class TestExperimentHarness:
    def test_smoke_profile_produces_rows(self):
        result = run_scale(
            node_counts=(2,),
            shard_counts=(1, 2),
            rates=(150.0,),
            routings=("snapshot_affinity",),
            duration_ms=250.0,
            seed=SEED,
        )
        assert len(result.rows) == 2
        assert result.headers[0] == "nodes"
        aggregates = result.raw["aggregates"]
        assert (2, 1, "snapshot_affinity", 150.0) in aggregates
