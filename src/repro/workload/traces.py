"""Synthetic arrival and popularity models, and the open-loop injector.

The paper's benchmark sends uniformly random invocations from a closed
set of workers; production FaaS traffic is neither uniform nor closed.
This module provides the standard synthetic substitutes — Poisson and
burst-modulated arrival processes, and Zipf-skewed function popularity
(the shape reported for the Azure Functions traces) — so the two
backends can also be compared under realistic skew
(``examples/zipf_workload.py``).

It is also the one way open-loop load enters the simulator.  Like the
paper's load generator, which pre-computes its send order so every
trial replays the same requests, every caller draws its stream first
and then hands it to :func:`inject`.  A stream is ascending
``times_ms`` offsets from the start of injection, plus, where
functions are named, a parallel ``function_ids`` vector into a
function list.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, List, Sequence, Tuple

from repro.errors import ConfigError
from repro.faas.records import FunctionSpec
from repro.sim import Environment, Event


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


@dataclass(frozen=True)
class ZipfPopularity:
    """Zipf-distributed function popularity: rank-``k`` weight k^-s.

    The one Zipf sampler.  :meth:`sample` draws on the caller's RNG, so
    a caller that interleaves popularity with other draws keeps one RNG
    order, and consecutive draws on one RNG continue one stream.  Like
    the arrival processes, a popularity also owns a stream seeded with
    ``seed``: the one :func:`synthesize_trace` draws from, so
    consecutive traces continue it.
    """

    function_count: int
    exponent: float = 1.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.function_count < 1:
            raise ConfigError("function_count must be >= 1")
        if self.exponent <= 0:
            raise ConfigError("exponent must be positive")
        # object.__setattr__ because the dataclass is frozen.
        object.__setattr__(self, "_rng", random.Random(self.seed))

    def weights(self) -> List[float]:
        return [
            1.0 / math.pow(rank, self.exponent)
            for rank in range(1, self.function_count + 1)
        ]

    @cached_property
    def cum_weights(self) -> List[float]:
        """Running totals of :meth:`weights`, accumulated once."""
        return list(itertools.accumulate(self.weights()))

    def sample(self, rng: random.Random, count: int = 1) -> List[int]:
        """``count`` function indices drawn on ``rng``, most popular = 0.

        One ``rng.random()`` per index, bisected into the running
        totals: the draws ``rng.choices(weights=self.weights())`` gives
        from the same RNG state, without accumulating the weights again
        on every call.
        """
        if count < 0:
            raise ConfigError(f"negative count {count}")
        return rng.choices(
            range(self.function_count), cum_weights=self.cum_weights, k=count
        )

    def head_share(self, head: int) -> float:
        """Fraction of traffic hitting the ``head`` most popular fns."""
        weights = self.weights()
        return sum(weights[:head]) / sum(weights)


def synthesize_trace(
    functions: Sequence[FunctionSpec],
    arrivals: ArrivalProcess,
    popularity: ZipfPopularity,
    count: int,
) -> Tuple[List[float], List[int]]:
    """Draw ``count`` arrivals over ``functions`` for :func:`replay_trace`.

    Returns ``(times_ms, function_ids)``: the next ``count`` arrival
    times of ``arrivals`` and as many indices from ``popularity``'s own
    seeded stream.
    """
    if popularity.function_count != len(functions):
        raise ConfigError(
            f"popularity over {popularity.function_count} functions, "
            f"got {len(functions)}"
        )
    times = arrivals.arrival_times(count)
    return times, popularity.sample(popularity._rng, count)


def poisson_window(
    rng: random.Random,
    pick: Callable[[], int],
    rate_per_s: float,
    duration_ms: float,
    start_ms: float,
) -> Tuple[List[float], List[int]]:
    """Pre-draw one open-loop Poisson window for :func:`replay_trace`.

    Draws in the order a live arrival loop would: each arrival's
    function id (``pick()``), then the exponential gap to the next
    arrival on ``rng``.  The first arrival opens the window, and the
    window closes at the first gap that reaches ``start_ms +
    duration_ms``.  Times accumulate on the clock from ``start_ms``, the
    instant the replay will start, so each arrival lands where a chain
    of ``env.timeout(gap)`` calls would put it.  Returns the arrivals'
    offsets from ``start_ms`` and their function ids.
    """
    window_end = start_ms + duration_ms
    at = start_ms
    times: List[float] = []
    function_ids: List[int] = []
    while True:
        function_ids.append(pick())
        times.append(at - start_ms)
        gap_ms = rng.expovariate(rate_per_s) * 1000.0
        if at + gap_ms >= window_end:
            return times, function_ids
        at += gap_ms


#: Arrivals per ``timeout_batch`` bulk insert, for every caller of
#: :func:`inject`.  It bounds how many arrival timeouts exist ahead of
#: the clock, never what a replay observes.
EPOCH_SIZE = 10_000


def inject(
    env: Environment,
    times_ms: Sequence[float],
    arrive: Callable[[Event], None],
) -> None:
    """Fire ``arrive`` once per arrival, ``times_ms[i]`` after now.

    The open-loop injector.  ``times_ms`` are ascending offsets from the
    start of injection (the clock when this is called), so a stream
    replays the same whatever the clock reads when it starts.  Arrivals
    enter through :meth:`~repro.sim.Environment.timeout_batch`
    :data:`EPOCH_SIZE` at a time: each epoch holds one heap slot and
    builds no per-arrival process, and the next epoch is queued when
    the last arrival of this one fires.  Arrivals fire in stream order,
    so ``arrive`` (each arrival timeout's callback) is one function
    that advances the caller's cursor into its parallel vectors.
    """
    epoch = EPOCH_SIZE
    if epoch < 1:
        raise ConfigError(f"EPOCH_SIZE must be >= 1, got {epoch}")
    start = env.now

    def driver():
        for first in range(0, len(times_ms), epoch):
            now = env.now
            timeouts = env.timeout_batch(
                [start + t - now for t in times_ms[first : first + epoch]],
                callback=arrive,
            )
            yield timeouts[-1]

    env.process(driver())


def replay_trace(
    cluster,
    functions: Sequence[FunctionSpec],
    times_ms: Sequence[float],
    function_ids: Sequence[int],
) -> list:
    """Replay an arrival stream open-loop against a cluster; returns results.

    Arrival ``i`` invokes ``functions[function_ids[i]]`` ``times_ms[i]``
    after the replay starts.  Unlike the closed-loop
    :class:`~repro.workload.generator.LoadGenerator` (C workers, at most
    C in flight), a replay launches each request on schedule regardless
    of completions — the open-loop behaviour of real external clients.
    Results arrive in completion order.
    """
    env = cluster.env
    total = len(times_ms)
    results: list = []
    if total == 0:
        return results
    done = env.event()
    next_fn = map(functions.__getitem__, function_ids).__next__

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

    def launch(event) -> None:
        cluster.invoke(next_fn()).callbacks.append(collect)

    inject(env, times_ms, launch)
    env.run(until=done)
    return results
