"""The FaaS load-generation benchmark (§7 "Load Generation Benchmark").

A trial has three parameters: invocation count (N), function set size
(M), and worker threads (C).  N invocations are distributed across the M
functions in a random but *pre-computed* order (seeded, "for
repeatability, the send order is pre-computed and persisted across
trials").  C workers pull one invocation at a time from a shared queue
and issue a synchronous request to the platform; at most C requests are
ever in flight.

An optional rate limit throttles aggregate request admission (used by
the burst experiments' background stream, capped at 72 rps).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence

from repro.errors import ConfigError
from repro.faas.cluster import FaasCluster
from repro.faas.records import FunctionSpec, InvocationResult
from repro.metrics.collector import LatencyRecorder, TrialMetrics


@dataclass(frozen=True)
class TrialConfig:
    """One benchmark trial's parameters."""

    invocation_count: int  # N
    workers: int  # C
    seed: int = 0xBEEF
    rate_limit_per_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.invocation_count < 1:
            raise ConfigError("invocation_count must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.rate_limit_per_s is not None and self.rate_limit_per_s <= 0:
            raise ConfigError("rate_limit_per_s must be positive")


@dataclass
class TrialResult:
    """Outcome of one trial."""

    config: TrialConfig
    metrics: TrialMetrics
    function_set_size: int

    @property
    def results(self) -> List[InvocationResult]:
        return self.metrics.recorder.results

    @property
    def throughput_per_s(self) -> float:
        return self.metrics.throughput_per_s(warmup_fraction=0.2)

    @property
    def error_rate(self) -> float:
        return self.metrics.error_rate


class LoadGenerator:
    """Drives one trial against a cluster."""

    def __init__(self, functions: Sequence[FunctionSpec], config: TrialConfig) -> None:
        if not functions:
            raise ConfigError("at least one function required")
        self.functions = list(functions)
        self.config = config
        # Pre-compute the send order (persisted via the seed).
        rng = random.Random(config.seed)
        self.send_order: List[int] = [
            rng.randrange(len(self.functions))
            for _ in range(config.invocation_count)
        ]
        self._cursor = 0
        self._next_admission_ms = 0.0

    # -- internals -----------------------------------------------------
    def _take_index(self) -> Optional[int]:
        """Pull the next invocation from the shared work queue."""
        if self._cursor >= len(self.send_order):
            return None
        index = self.send_order[self._cursor]
        self._cursor += 1
        return index

    def _admission_delay_ms(self, now: float) -> float:
        """Token-style pacing for the optional rate limit."""
        if self.config.rate_limit_per_s is None:
            return 0.0
        interval = 1000.0 / self.config.rate_limit_per_s
        slot = max(self._next_admission_ms, now)
        self._next_admission_ms = slot + interval
        return slot - now

    def _worker(self, cluster: FaasCluster, recorder: LatencyRecorder) -> Generator:
        env = cluster.env
        while True:
            index = self._take_index()
            if index is None:
                return
            delay = self._admission_delay_ms(env.now)
            if delay > 0:
                yield env.timeout(delay)
            result = yield cluster.invoke(self.functions[index])
            recorder.add(result)

    # -- entry points ----------------------------------------------------
    def run_process(self, cluster: FaasCluster, metrics: TrialMetrics) -> Generator:
        """Sim process: run the full trial, filling ``metrics``."""
        env = cluster.env
        metrics.started_ms = env.now
        workers = [
            env.process(self._worker(cluster, metrics.recorder))
            for _ in range(self.config.workers)
        ]
        yield env.all_of(workers)
        metrics.finished_ms = env.now

    def run(self, cluster: FaasCluster) -> TrialResult:
        """Run the trial to completion on the cluster's environment."""
        metrics = TrialMetrics()
        process = cluster.env.process(self.run_process(cluster, metrics))
        cluster.env.run(until=process)
        return TrialResult(
            config=self.config,
            metrics=metrics,
            function_set_size=len(self.functions),
        )


def run_trial(
    cluster: FaasCluster,
    functions: Sequence[FunctionSpec],
    invocation_count: int,
    workers: int,
    seed: int = 0xBEEF,
    rate_limit_per_s: Optional[float] = None,
) -> TrialResult:
    """Convenience wrapper: build a generator and run one trial."""
    config = TrialConfig(
        invocation_count=invocation_count,
        workers=workers,
        seed=seed,
        rate_limit_per_s=rate_limit_per_s,
    )
    return LoadGenerator(functions, config).run(cluster)

