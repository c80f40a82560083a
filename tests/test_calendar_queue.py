"""Randomized model tests: calendar queue vs the ``heapq`` oracle.

The calendar queue must reproduce the heap's pop order *exactly* —
same ``(time, priority, eid)`` total order, same object identity —
under adversarial schedules: same-tick bursts, URGENT/NORMAL mixes,
exponential near-future traffic, far-future outliers that land in the
overflow heap, and population swings that force resizes and rebases.
Every test is seeded; failures reproduce deterministically.

:class:`HeapQueue` — the engine's historical ``heapq`` event queue —
lives here as the oracle; :func:`make_env` swaps it into an
``Environment`` so whole-engine runs can be compared against it.
"""

import heapq
import random
from typing import List

import pytest

from repro.sim import Environment
from repro.sim.calendar import (
    GROW_FACTOR,
    MIN_BUCKETS,
    CalendarQueue,
)

SEEDS = [1, 7, 42, 1337, 0xF1EE7]


class HeapQueue:
    """The historical ``heapq`` event queue: the reference oracle."""

    def __init__(self) -> None:
        self._heap: List[tuple] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, entry, now: float) -> None:
        heapq.heappush(self._heap, entry)

    def push_sorted(self, entries, now: float) -> None:
        self._heap.extend(entries)
        heapq.heapify(self._heap)

    def pop(self):
        return heapq.heappop(self._heap)

    def head(self):
        return self._heap[0] if self._heap else None


def make_env(backend: str, initial_time: float = 0.0) -> Environment:
    """An engine on the calendar queue or on the heap oracle."""
    env = Environment(initial_time=initial_time)
    if backend == "heap":
        env._pending = HeapQueue()
    return env


def _push_random(rng, ref, q, now, eid):
    """Push one entry drawn from the adversarial time mix into both."""
    roll = rng.random()
    if roll < 0.25:
        # Delay-0 burst, URGENT/NORMAL mixed — the engine only ever
        # schedules URGENT at the current instant, so the model does too.
        t, p = now, (0 if rng.random() < 0.5 else 1)
    elif roll < 0.55:
        t, p = now, 1
    elif roll < 0.90:
        t, p = now + rng.expovariate(1.0), 1
    else:
        # Far-future outlier: lands in the overflow heap.
        t, p = now + rng.uniform(50.0, 50_000.0), 1
    entry = (t, p, eid, None)
    heapq.heappush(ref, entry)
    q.push(entry, now)
    return entry


class TestModelVsHeapOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_ops_pop_identical_order(self, seed):
        rng = random.Random(seed)
        ref = []
        q = CalendarQueue(start=0.0, width=0.5, nbuckets=MIN_BUCKETS)
        now = 0.0
        eid = 0
        pops = 0
        for _ in range(30_000):
            roll = rng.random()
            if roll < 0.52 or not ref:
                eid += 1
                _push_random(rng, ref, q, now, eid)
            elif roll < 0.60:
                assert q.head() is ref[0]
                assert len(q) == len(ref)
            else:
                a = heapq.heappop(ref)
                b = q.pop()
                assert a is b
                now = a[0]
                pops += 1
        while ref:
            assert heapq.heappop(ref) is q.pop()
        assert len(q) == 0
        assert q.head() is None
        assert pops > 1_000  # the mix actually exercised pops

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_population_swings_force_resize(self, seed):
        """Grow to tens of thousands live, drain to near-zero, regrow.

        Crossing ``GROW_FACTOR * nbuckets`` pending entries triggers the
        occupancy resize; draining across calendar years exercises
        rebase and the overflow deal-in.  Order must never deviate.
        """
        rng = random.Random(seed)
        ref = []
        q = CalendarQueue(start=0.0, width=0.5, nbuckets=MIN_BUCKETS)
        now = 0.0
        eid = 0
        grew = False
        for phase, (n_push, n_pop) in enumerate(
            [(20_000, 19_900), (40_000, 39_990), (5_000, 5_110)]
        ):
            for _ in range(n_push):
                eid += 1
                _push_random(rng, ref, q, now, eid)
            if q.stats["nbuckets"] > MIN_BUCKETS:
                grew = True
            for _ in range(n_pop):
                if not ref:
                    break
                a = heapq.heappop(ref)
                assert a is q.pop()
                now = a[0]
        while ref:
            assert heapq.heappop(ref) is q.pop()
        assert grew, "test never crossed the resize threshold"

    def test_far_future_gap_jumps_idle_years(self):
        """A lone outlier far past the horizon pops without spinning.

        With width 0.5 and 256 buckets, t=1e9 is ~7.8M calendar years
        ahead; the rebase must jump straight to it rather than rotate
        through empty spans.
        """
        q = CalendarQueue(start=0.0, width=0.5, nbuckets=MIN_BUCKETS)
        near = (1.0, 1, 1, "near")
        far = (1e9, 1, 2, "far")
        q.push(near, 0.0)
        q.push(far, 0.0)
        assert q.pop() is near
        assert q.pop() is far
        assert len(q) == 0

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_push_sorted_matches_sequential_push(self, seed):
        rng = random.Random(seed)
        now = 13.25
        times = sorted(
            now + (0.0 if rng.random() < 0.2 else rng.expovariate(0.01))
            for _ in range(5_000)
        )
        entries = [(t, 1, eid, None) for eid, t in enumerate(times)]
        bulk = CalendarQueue(start=now, width=0.5, nbuckets=MIN_BUCKETS)
        seq = CalendarQueue(start=now, width=0.5, nbuckets=MIN_BUCKETS)
        oracle = list(entries)
        heapq.heapify(oracle)
        bulk.push_sorted(entries, now)
        for entry in entries:
            seq.push(entry, now)
        assert len(bulk) == len(seq) == len(entries)
        while oracle:
            want = heapq.heappop(oracle)
            assert bulk.pop() is want
            assert seq.pop() is want

    def test_push_sorted_rejects_nothing_but_preserves_empty(self):
        q = CalendarQueue()
        q.push_sorted([], 0.0)
        assert len(q) == 0
        assert q.head() is None

    def test_pop_empty_raises_index_error(self):
        q = CalendarQueue()
        with pytest.raises(IndexError):
            q.pop()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            CalendarQueue(width=0.0)
        with pytest.raises(ValueError):
            CalendarQueue(nbuckets=0)

    def test_heap_backend_is_a_faithful_oracle(self):
        """HeapQueue is the committed reference: plain heapq semantics."""
        q = HeapQueue()
        entries = [(3.0, 1, 2, None), (1.0, 1, 1, None), (2.0, 0, 3, None)]
        for entry in entries:
            q.push(entry, 0.0)
        assert q.head() == (1.0, 1, 1, None)
        assert [q.pop() for _ in range(3)] == sorted(entries)
        assert q.head() is None
        assert len(q) == 0

    def test_stats_snapshot_accounts_for_all_regions(self):
        q = CalendarQueue(start=0.0, width=0.5, nbuckets=MIN_BUCKETS)
        q.push((0.0, 0, 1, None), 0.0)   # urgent
        q.push((0.0, 1, 2, None), 0.0)   # immediate
        q.push((0.25, 1, 3, None), 0.0)  # near (inside active bucket)
        q.push((10.0, 1, 4, None), 0.0)  # calendar bucket
        q.push((1e9, 1, 5, None), 0.0)   # overflow
        stats = q.stats
        assert stats["size"] == len(q) == 5
        assert stats["urgent"] == 1
        assert stats["immediate"] == 1
        assert stats["near"] == 1
        assert stats["overflow"] == 1


class TestEnvironmentBackendEquivalence:
    """The same seeded workload on the calendar engine and the oracle."""

    @staticmethod
    def _workload(env, rng, log):
        def worker(wid):
            for i in range(rng.randint(3, 9)):
                yield env.timeout(rng.expovariate(0.1))
                log.append((env.now, wid, i))
                if rng.random() < 0.3:
                    yield env.timeout(0.0)

        def spawner():
            for wid in range(200):
                env.process(worker(wid))
                yield env.timeout(rng.expovariate(1.0))

        env.process(spawner())
        env.run()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_events_processed_and_trace_identical(self, seed):
        logs = {}
        envs = {}
        for backend in ("calendar", "heap"):
            env = make_env(backend)
            log = []
            self._workload(env, random.Random(seed), log)
            logs[backend] = log
            envs[backend] = env
        assert logs["calendar"] == logs["heap"]
        assert (
            envs["calendar"].events_processed
            == envs["heap"].events_processed
        )
        assert envs["calendar"].now == envs["heap"].now


class TestBatchScheduling:
    @pytest.mark.parametrize("backend", ["calendar", "heap"])
    def test_timeout_batch_equals_sequential_timeouts(self, backend):
        delays = [0.0, 0.0, 0.5, 0.5, 1.25, 7.0, 7.0, 9_999.0]
        batch_env = make_env(backend)
        seq_env = make_env(backend)
        batch_log, seq_log = [], []
        timeouts = batch_env.timeout_batch(delays, value="v")
        for i, timeout in enumerate(timeouts):
            timeout.callbacks.append(
                lambda ev, i=i: batch_log.append((batch_env.now, i, ev.value))
            )
        seq_timeouts = [seq_env.timeout(d, value="v") for d in delays]
        for i, timeout in enumerate(seq_timeouts):
            timeout.callbacks.append(
                lambda ev, i=i: seq_log.append((seq_env.now, i, ev.value))
            )
        batch_env.run()
        seq_env.run()
        assert batch_log == seq_log
        assert batch_env.events_processed == seq_env.events_processed
        assert batch_env.now == seq_env.now == 9_999.0
        assert all(t.delay == d for t, d in zip(timeouts, delays))

    def test_timeout_batch_validation(self):
        env = Environment()
        with pytest.raises(ValueError, match="negative delay"):
            env.timeout_batch([-1.0])
        with pytest.raises(ValueError, match="ascending"):
            env.timeout_batch([5.0, 1.0])

    def test_timeout_batch_interleaves_with_singles_by_insertion_id(self):
        """Batch entries tie-break against singles exactly by creation order."""
        log = []
        for batched in (False, True):
            env = make_env("calendar" if batched else "heap")
            order = []
            a = env.timeout(1.0, value="a")
            if batched:
                b, c = env.timeout_batch([1.0, 1.0], value="bc")
            else:
                b, c = env.timeout(1.0, value="bc"), env.timeout(1.0, value="bc")
            d = env.timeout(1.0, value="d")
            for name, t in [("a", a), ("b", b), ("c", c), ("d", d)]:
                t.callbacks.append(lambda ev, name=name: order.append(name))
            env.run()
            log.append(order)
        assert log[0] == log[1] == ["a", "b", "c", "d"]

    @pytest.mark.parametrize("backend", ["calendar", "heap"])
    def test_schedule_batch_fires_pretriggered_events(self, backend):
        env = make_env(backend)
        events = []
        for value in ("x", "y", "z"):
            event = env.event()
            event._ok = True
            event._value = value
            events.append(event)
        fired = []
        for event in events:
            event.callbacks.append(
                lambda ev: fired.append((env.now, ev.value))
            )
        env.schedule_batch(zip([2.0, 2.0, 5.0], events))
        env.run()
        assert fired == [(2.0, "x"), (2.0, "y"), (5.0, "z")]
        assert all(e.processed for e in events)

    def test_schedule_batch_validation(self):
        env = Environment(initial_time=10.0)
        with pytest.raises(ValueError, match="ascending"):
            env.schedule_batch([(5.0, env.event())])  # in the past
        with pytest.raises(ValueError, match="ascending"):
            env.schedule_batch(
                [(20.0, env.event()), (15.0, env.event())]
            )

    def test_batch_growth_triggers_calendar_resize(self):
        """A single bulk insert past the occupancy bound resizes too."""
        env = Environment()
        n = GROW_FACTOR * MIN_BUCKETS * 4
        delays = [float(i) for i in range(n)]
        env.timeout_batch(delays)
        assert env._pending.stats["nbuckets"] > MIN_BUCKETS
        env.run()
        assert env.now == float(n - 1)
        assert env.events_processed == n
