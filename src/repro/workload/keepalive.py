"""Keep-alive policy replay lab over synthesized fleet traces.

The question the ``keepalive`` experiment answers — how does cache
policy move the cold-start-rate / memory-footprint trade-off under
production-shaped load? — needs millions of policy decisions, far past
what driving full :class:`~repro.seuss.node.SeussNode` invocations can
afford.  This lab replays a :class:`~repro.workload.fleet.FleetTrace`
against a policy-managed warm-instance cache model: per function one
warm instance (the FaasCache simplification), a memory budget enforced
by :class:`~repro.seuss.policy.CachePolicy` victim selection, TTL-style
expiry for policies that expose keep-alive windows, and histogram-driven
pre-warming.  Arrivals enter through the shared open-loop injector
(:func:`~repro.workload.traces.inject`), so an hour-long 100k-function
trace replays in seconds.

The model is deliberately simple but conservative: a busy instance
cannot be evicted; concurrent arrivals to one function queue on its
instance (warm); eviction under pressure may fail only when *every*
resident instance is busy, in which case the insert overcommits and is
reported (``overcommits``), never silently dropped.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.seuss.policy import CachePolicy, make_policy
from repro.sim import Environment
from repro.trace import current as _active_tracer
from repro.workload.fleet import FleetTrace
from repro.workload.traces import inject


@dataclass(frozen=True)
class KeepAliveConfig:
    """One policy replay: which policy, how much memory, which knobs."""

    policy: str = "lru"
    memory_budget_mb: float = 4_096.0
    #: Cold-start overhead added ahead of execution on a miss (and the
    #: rebuild cost greedy-dual credits per hit).
    cold_start_ms: float = 150.0

    def __post_init__(self) -> None:
        if self.memory_budget_mb <= 0:
            raise ConfigError("memory_budget_mb must be positive")
        if self.cold_start_ms < 0:
            raise ConfigError("cold_start_ms must be non-negative")


@dataclass
class KeepAliveResult:
    """What one replay observed."""

    policy: str
    budget_mb: float
    arrivals: int = 0
    cold_starts: int = 0
    warm_starts: int = 0
    #: Warm starts served by a pre-warmed instance.
    prewarm_hits: int = 0
    prewarms: int = 0
    prewarm_wasted_ms: float = 0.0
    evictions: int = 0
    expirations: int = 0
    #: Inserts that could not free enough idle memory (all busy).
    overcommits: int = 0
    peak_resident_mb: float = 0.0
    avg_resident_mb: float = 0.0
    keepalive_hits: int = 0

    @property
    def cold_rate(self) -> float:
        return self.cold_starts / self.arrivals if self.arrivals else 0.0

    @property
    def warm_rate(self) -> float:
        return self.warm_starts / self.arrivals if self.arrivals else 0.0


@dataclass
class _Entry:
    """One resident warm instance."""

    size_mb: float
    busy_until: float
    last_use: float
    stamp: int = 0
    prewarmed_at: Optional[float] = None


class _Lab:
    """The policy-managed cache state machine behind :func:`replay_keepalive`."""

    def __init__(self, trace: FleetTrace, config: KeepAliveConfig) -> None:
        self.trace = trace
        self.config = config
        self._now = 0.0
        self.policy: CachePolicy = make_policy(
            config.policy, clock=lambda: self._now
        )
        self.entries: Dict[int, _Entry] = {}
        self.resident_mb = 0.0
        self.result = KeepAliveResult(
            policy=self.policy.name, budget_mb=config.memory_budget_mb
        )
        # Memory-over-time integral for the avg-resident metric.
        self._area_mb_ms = 0.0
        self._area_at = 0.0
        # Lazily invalidated (when_ms, fn, stamp) expiry heap and
        # (when_ms, fn) pre-warm heap, drained at each event in time
        # order so expiry frees memory at its nominal instant.
        self._expiry: List[Tuple[float, int, int]] = []
        self._prewarm: List[Tuple[float, int]] = []

    # -- memory accounting -----------------------------------------------
    def _advance(self, at_ms: float) -> None:
        if at_ms > self._area_at:
            self._area_mb_ms += self.resident_mb * (at_ms - self._area_at)
            self._area_at = at_ms

    def _charge(self, size_mb: float, at_ms: float) -> None:
        self._advance(at_ms)
        self.resident_mb += size_mb
        if self.resident_mb > self.result.peak_resident_mb:
            self.result.peak_resident_mb = self.resident_mb

    def _release(self, size_mb: float, at_ms: float) -> None:
        self._advance(at_ms)
        self.resident_mb -= size_mb

    # -- keep-alive windows ----------------------------------------------
    def _schedule_expiry(self, fn: int, entry: _Entry) -> None:
        # A pre-warmed instance waits through the predicted arrival
        # window (hybrid keeps it until the histogram's tail); a used
        # instance idles out on the plain keep-alive window.
        if entry.prewarmed_at is not None:
            keep = self.policy.prewarm_keep_alive_ms(str(fn))
        else:
            keep = self.policy.keep_alive_ms(str(fn))
        if keep is None:
            return
        entry.stamp += 1
        when = max(entry.busy_until, entry.last_use) + keep
        heapq.heappush(self._expiry, (when, fn, entry.stamp))

    def _expire(self, fn: int, entry: _Entry, at_ms: float) -> None:
        if entry.prewarmed_at is not None:
            # A pre-warm nobody used: its whole residency was waste.
            wasted = at_ms - entry.prewarmed_at
            self.result.prewarm_wasted_ms += wasted
            tracer = _active_tracer()
            if tracer.enabled:
                tracer.counter("policy.prewarm_wasted_ms", delta=wasted)
        del self.entries[fn]
        self._release(entry.size_mb, at_ms)
        self.policy.on_remove(str(fn), evicted=False)
        self.result.expirations += 1
        # Histogram policies that predict a late re-arrival re-warm the
        # instance ahead of it.
        gap = self.policy.prewarm_gap_ms(str(fn))
        if gap is not None:
            heapq.heappush(self._prewarm, (entry.last_use + gap, fn))

    def _insert(self, fn: int, at_ms: float, prewarmed: bool) -> _Entry:
        size = self.trace.sizes_mb[fn]
        self._make_room(size, at_ms)
        entry = _Entry(size_mb=size, busy_until=at_ms, last_use=at_ms)
        if prewarmed:
            entry.prewarmed_at = at_ms
        self.entries[fn] = entry
        self._charge(size, at_ms)
        self.policy.on_insert(
            str(fn),
            size_mb=size,
            cost_ms=self.config.cold_start_ms,
            prewarmed=prewarmed,
        )
        return entry

    def _make_room(self, needed_mb: float, at_ms: float) -> None:
        budget = self.config.memory_budget_mb
        attempts = len(self.entries)
        seen_busy = set()
        while self.resident_mb + needed_mb > budget and self.entries and attempts > 0:
            attempts -= 1
            fn = int(self.policy.victim())
            victim = self.entries[fn]
            if victim.busy_until > at_ms:
                if fn in seen_busy:
                    # The policy cycled back to a victim we already
                    # deprioritized: every earlier candidate is busy,
                    # so eviction cannot make further progress now.
                    break
                seen_busy.add(fn)
                # Busy instances cannot be evicted; deprioritize.
                self.policy.requeue(str(fn))
                continue
            if victim.prewarmed_at is not None:
                self.result.prewarm_wasted_ms += at_ms - victim.prewarmed_at
            # Under pressure the histogram's prediction still stands:
            # if the policy expects the victim back, warm it ahead of
            # the predicted return (unless that moment already passed).
            gap = self.policy.prewarm_gap_ms(str(fn))
            if gap is not None and victim.last_use + gap > at_ms:
                heapq.heappush(self._prewarm, (victim.last_use + gap, fn))
            del self.entries[fn]
            self._release(victim.size_mb, at_ms)
            self.policy.on_remove(str(fn))
        if self.resident_mb + needed_mb > budget:
            self.result.overcommits += 1

    # -- heap draining ----------------------------------------------------
    def _drain_due(self, now_ms: float) -> None:
        """Apply expiries and pre-warms due up to ``now_ms`` in time order."""
        while True:
            next_expiry = self._expiry[0][0] if self._expiry else float("inf")
            next_prewarm = self._prewarm[0][0] if self._prewarm else float("inf")
            when = min(next_expiry, next_prewarm)
            if when > now_ms:
                return
            if next_expiry <= next_prewarm:
                when, fn, stamp = heapq.heappop(self._expiry)
                entry = self.entries.get(fn)
                if entry is None or entry.stamp != stamp:
                    continue  # stale: the entry was touched since
                if entry.busy_until > when:
                    # Still executing at nominal expiry; re-arm from idle.
                    self._schedule_expiry(fn, entry)
                    continue
                self._expire(fn, entry, when)
            else:
                when, fn = heapq.heappop(self._prewarm)
                if fn in self.entries:
                    continue  # already warm again
                entry = self._insert(fn, when, prewarmed=True)
                self._schedule_expiry(fn, entry)
                self.result.prewarms += 1

    # -- the arrival path -------------------------------------------------
    def arrival(self, index: int, now_ms: float) -> None:
        self._now = now_ms
        self._drain_due(now_ms)
        fn = self.trace.function_ids[index]
        exec_ms = self.trace.exec_ms[fn]
        self.result.arrivals += 1
        entry = self.entries.get(fn)
        if entry is not None:
            self.result.warm_starts += 1
            if entry.prewarmed_at is not None:
                entry.prewarmed_at = None
                self.result.prewarm_hits += 1
            # Concurrent arrivals share the warm instance (the lab does
            # not model per-request queueing): busy until the last
            # in-flight request finishes, bounded by one exec time.
            entry.busy_until = max(entry.busy_until, now_ms + exec_ms)
            entry.last_use = now_ms
            self.policy.on_hit(str(fn))
        else:
            self.result.cold_starts += 1
            entry = self._insert(fn, now_ms, prewarmed=False)
            entry.busy_until = now_ms + self.config.cold_start_ms + exec_ms
        self._schedule_expiry(fn, entry)

    def finish(self, end_ms: float) -> KeepAliveResult:
        self._now = end_ms
        self._drain_due(end_ms)
        self._advance(end_ms)
        # Pre-warmed instances still resident and unused at the end
        # were waste too.
        for entry in self.entries.values():
            if entry.prewarmed_at is not None:
                self.result.prewarm_wasted_ms += end_ms - entry.prewarmed_at
        self.result.avg_resident_mb = (
            self._area_mb_ms / end_ms if end_ms > 0 else 0.0
        )
        self.result.evictions = self.policy.stats.evictions
        self.result.keepalive_hits = self.policy.stats.keepalive_hits
        return self.result


def replay_keepalive(
    trace: FleetTrace,
    config: KeepAliveConfig,
    env: Optional[Environment] = None,
) -> KeepAliveResult:
    """Replay ``trace`` against one policy-managed cache; fully deterministic.

    Arrivals fire in stream order, so one cursor callback drives the
    lab with no per-arrival closures.
    """
    if env is None:
        env = Environment()
    lab = _Lab(trace, config)
    cursor = iter(range(trace.arrivals)).__next__

    def arrive(event) -> None:
        lab.arrival(cursor(), env.now)

    inject(env, trace.times_ms, arrive)
    env.run()
    return lab.finish(max(trace.config.duration_ms, env.now))


def race_policies(
    trace: FleetTrace,
    policies: Sequence[str],
    budgets_mb: Sequence[float],
    cold_start_ms: float = 150.0,
) -> List[KeepAliveResult]:
    """Replay the same trace for every (budget, policy) pair, budget-major."""
    return [
        replay_keepalive(
            trace,
            KeepAliveConfig(
                policy=policy,
                memory_budget_mb=budget,
                cold_start_ms=cold_start_ms,
            ),
        )
        for budget in budgets_mb
        for policy in policies
    ]
