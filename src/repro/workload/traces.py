"""Synthetic arrival and popularity models.

The paper's benchmark sends uniformly random invocations from a closed
set of workers; production FaaS traffic is neither uniform nor closed.
This module provides the standard synthetic substitutes — Poisson and
burst-modulated arrival processes, and Zipf-skewed function popularity
(the shape reported for the Azure Functions traces) — so the two
backends can also be compared under realistic skew
(``examples/zipf_workload.py``).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence

from repro.errors import ConfigError
from repro.faas.records import FunctionSpec


class ArrivalProcess:
    """Base: an infinite stream of inter-arrival gaps (ms).

    Rate-modulated processes need to know *where on the clock* the
    stream starts — stitching a trace out of segments restarts ``gaps``
    once per segment, and a phase that silently resets to zero bends
    every segment's rate profile back to the period origin.  ``gaps``
    therefore takes the absolute start time; memoryless processes are
    free to ignore it.
    """

    def gaps(self, start_ms: float = 0.0) -> Iterator[float]:
        raise NotImplementedError

    def arrival_times(self, count: int, start_ms: float = 0.0) -> List[float]:
        """The first ``count`` absolute arrival times from ``start_ms``."""
        if count < 0:
            raise ConfigError(f"negative count {count}")
        times: List[float] = []
        now = start_ms
        gaps = self.gaps(start_ms)
        for _ in range(count):
            now += next(gaps)
            times.append(now)
        return times

    def arrival_times_until(
        self, end_ms: float, start_ms: float = 0.0
    ) -> List[float]:
        """All arrival times in ``(start_ms, end_ms]``.

        The segment form used by trace stitching: each call consumes
        the process's RNG stream from where the previous one stopped,
        so consecutive segments concatenate into one statistically
        continuous trace (pinned by the stitching tests).
        """
        if end_ms < start_ms:
            raise ConfigError(
                f"end_ms {end_ms} precedes start_ms {start_ms}"
            )
        times: List[float] = []
        now = start_ms
        gaps = self.gaps(start_ms)
        while True:
            now += next(gaps)
            if now > end_ms:
                return times
            times.append(now)


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at ``rate_per_s``."""

    def __init__(self, rate_per_s: float, seed: int = 0) -> None:
        if rate_per_s <= 0:
            raise ConfigError(f"rate must be positive, got {rate_per_s}")
        self.rate_per_s = rate_per_s
        self._rng = random.Random(seed)

    def gaps(self, start_ms: float = 0.0) -> Iterator[float]:
        mean_gap_ms = 1000.0 / self.rate_per_s
        while True:
            yield self._rng.expovariate(1.0 / mean_gap_ms)


class ModulatedArrivals(ArrivalProcess):
    """Poisson arrivals whose rate alternates base/peak.

    A simple on-off burst model: ``peak_fraction`` of each period runs
    at ``peak_rate_per_s``, the remainder at ``base_rate_per_s``.
    """

    def __init__(
        self,
        base_rate_per_s: float,
        peak_rate_per_s: float,
        period_ms: float,
        peak_fraction: float = 0.2,
        seed: int = 0,
    ) -> None:
        if base_rate_per_s <= 0 or peak_rate_per_s <= 0 or period_ms <= 0:
            raise ConfigError("rates and period must be positive")
        if not 0.0 < peak_fraction < 1.0:
            raise ConfigError(f"peak_fraction {peak_fraction} not in (0,1)")
        self.base_rate_per_s = base_rate_per_s
        self.peak_rate_per_s = peak_rate_per_s
        self.period_ms = period_ms
        self.peak_fraction = peak_fraction
        self._rng = random.Random(seed)

    def _rate_at(self, now_ms: float) -> float:
        phase = (now_ms % self.period_ms) / self.period_ms
        return (
            self.peak_rate_per_s
            if phase < self.peak_fraction
            else self.base_rate_per_s
        )

    def gaps(self, start_ms: float = 0.0) -> Iterator[float]:
        # Phase tracks *absolute* time: a stream started mid-period sees
        # the rate of that phase, not a peak restarted at zero.  (The
        # historical `now = 0.0` reset the burst phase at every segment
        # boundary of a stitched trace.)
        now = float(start_ms)
        while True:
            rate = self._rate_at(now)
            gap = self._rng.expovariate(rate / 1000.0)
            now += gap
            yield gap


class ZipfStream:
    """A resumable index stream over a :class:`ZipfPopularity`.

    Holds its own :class:`random.Random` seeded once at construction,
    so consecutive :meth:`take` calls continue the underlying uniform
    stream — two draws of 500 concatenate to exactly one draw of 1000.
    """

    __slots__ = ("_rng", "_population", "_cum_weights", "drawn")

    def __init__(self, popularity: "ZipfPopularity") -> None:
        self._rng = random.Random(popularity.seed)
        self._population = range(popularity.function_count)
        # ``choices(weights=w)`` accumulates w internally on every call;
        # pre-accumulating once is byte-identical (same float order) and
        # O(1) per segment instead of O(function_count).
        self._cum_weights = list(
            itertools.accumulate(popularity.weights())
        )
        #: Total indices drawn so far (segment-stitching bookkeeping).
        self.drawn = 0

    def take(self, count: int) -> List[int]:
        """The next ``count`` indices of the stream."""
        if count < 0:
            raise ConfigError(f"negative count {count}")
        self.drawn += count
        return self._rng.choices(
            self._population, cum_weights=self._cum_weights, k=count
        )

    def __iter__(self) -> Iterator[int]:
        while True:
            yield self.take(1)[0]


@dataclass(frozen=True)
class ZipfPopularity:
    """Zipf-distributed function popularity: rank-``k`` weight k^-s."""

    function_count: int
    exponent: float = 1.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.function_count < 1:
            raise ConfigError("function_count must be >= 1")
        if self.exponent <= 0:
            raise ConfigError("exponent must be positive")
        # Persistent sampling stream behind ``sample_indices`` (lazily
        # created; object.__setattr__ because the dataclass is frozen).
        object.__setattr__(self, "_stream", None)

    def weights(self) -> List[float]:
        return [
            1.0 / math.pow(rank, self.exponent)
            for rank in range(1, self.function_count + 1)
        ]

    def stream(self) -> ZipfStream:
        """A fresh resumable stream (independent of other streams)."""
        return ZipfStream(self)

    def sample_indices(self, count: int) -> List[int]:
        """``count`` function indices, most popular = index 0.

        Sampling is *resumable*: consecutive calls continue one
        persistent RNG stream, so synthesizing a long trace in segments
        draws fresh indices per segment.  (The historical implementation
        re-seeded per call and replayed the identical sequence every
        time.)  The first call is byte-identical to the historical
        output; use :meth:`stream` for explicitly independent streams.
        """
        stream = self._stream
        if stream is None:
            stream = ZipfStream(self)
            object.__setattr__(self, "_stream", stream)
        return stream.take(count)

    def head_share(self, head: int) -> float:
        """Fraction of traffic hitting the ``head`` most popular fns."""
        weights = self.weights()
        return sum(weights[:head]) / sum(weights)


@dataclass(frozen=True)
class TraceEntry:
    """One invocation of a synthetic trace."""

    at_ms: float
    function: FunctionSpec


def synthesize_trace(
    functions: Sequence[FunctionSpec],
    arrivals: ArrivalProcess,
    popularity: ZipfPopularity,
    count: int,
) -> List[TraceEntry]:
    """Zip arrivals and popularity into a replayable trace."""
    if popularity.function_count != len(functions):
        raise ConfigError(
            f"popularity over {popularity.function_count} functions, "
            f"got {len(functions)}"
        )
    times = arrivals.arrival_times(count)
    indices = popularity.sample_indices(count)
    return [
        TraceEntry(at_ms=at, function=functions[idx])
        for at, idx in zip(times, indices)
    ]


def replay_trace(cluster, trace: Sequence[TraceEntry], epoch_size: int = 10_000):
    """Replay a trace open-loop against a cluster; returns results.

    Unlike the closed-loop :class:`~repro.workload.generator.LoadGenerator`
    (C workers, at most C in flight), a trace replay launches each
    request at its timestamp regardless of completions — the open-loop
    behaviour of real external clients.

    The arrival timeline is injected epoch-by-epoch through
    :meth:`~repro.sim.Environment.timeout_batch` — one bulk queue insert
    per ``epoch_size`` entries and no per-entry waiter process — which
    keeps million-invocation fleet replays affordable.  Requires
    ``trace`` sorted by ``at_ms`` (as :func:`synthesize_trace`
    produces).  Results arrive in completion order.
    """
    if epoch_size < 1:
        raise ConfigError(f"epoch_size must be >= 1, got {epoch_size}")
    env = cluster.env
    total = len(trace)
    if total == 0:
        return []
    results: list = []
    done = env.event()

    def collect(process) -> None:
        if not process.ok:
            # A failed invocation process is left un-defused so the
            # engine raises its exception out of ``run``; it must never
            # be appended as if it were a result (were it the last
            # entry, the replay would declare itself complete).
            return
        results.append(process.value)
        if len(results) == total:
            done.succeed()

    def launch(event, entry: TraceEntry) -> None:
        cluster.invoke(entry.function).callbacks.append(collect)

    def driver():
        for start in range(0, total, epoch_size):
            chunk = trace[start : start + epoch_size]
            now = env.now
            timeouts = env.timeout_batch(
                [max(0.0, entry.at_ms - now) for entry in chunk]
            )
            for timeout, entry in zip(timeouts, chunk):
                timeout.callbacks.append(
                    lambda event, entry=entry: launch(event, entry)
                )
            # Hold the next epoch back until this one's arrivals fired,
            # keeping at most epoch_size arrival timeouts in the queue.
            yield timeouts[-1]

    env.process(driver())
    env.run(until=done)
    return results
