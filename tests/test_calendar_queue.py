"""Engine order tests: the one ``heapq`` queue and ``timeout_batch``.

The engine pops ``(time, priority, insertion id)`` entries from one
binary heap.  ``timeout_batch`` queues a sorted batch lazily — one heap
slot per batch, each processed timeout queuing its successor — and
must fire exactly as the same delays passed one by one to
``timeout()`` would: same objects, same order, same event count.  A
seeded workload exercises every drive mode (``run`` to exhaustion, to
an event, to a time, limit slices, ``step``) across batches that tie
with single timeouts and overlap each other, and withdraws the queued
timeouts nothing waits on any more: withdrawing changes nothing but the
event count.  Every test is seeded; failures reproduce
deterministically.
"""

import random

import pytest

from repro.sim import Environment, Interrupt, Resource, SimulationError, Store

SEEDS = [1, 7, 42, 1337, 0xF1EE7]


def _mixed_workload(env, rng, log, batched=True, withdraw=True, spent=None):
    """A seeded engine workout; returns the event that fires last.

    Workers contend for a ``Resource`` and hand items through a
    ``Store`` (waited and unwaited puts) to a consumer; the root process
    races ``AnyOf`` against a deadline, joins with ``AllOf``, interrupts
    a sleeper and catches a failing process.  Meanwhile an epoch process
    queues two overlapping timeout batches whose delays tie with each
    other and with single timeouts made just before and after them —
    through ``timeout_batch`` when ``batched``, else through one
    ``timeout()`` call per delay.

    Some timeouts end up with nothing waiting on them: the deadline
    that loses the root's race, spare singles, and the tail of a spare
    batch queued with ``callback=None``.  The first of the ``ones``
    batch, firing while both batches are in flight, lets go of the
    spares: enough to outnumber the live entries, with the spare tail
    not yet queued by its predecessor.  Each such timeout still queued
    is appended to ``spent`` (when given) and, when ``withdraw``,
    withdrawn as the controller withdraws a spent watchdog; otherwise it
    stays queued with no callbacks and fires unobserved.  Nothing live
    is left queued once the root process (the returned event) is
    processed, so every drive mode ends on the same event.
    """
    cores = Resource(env, capacity=3)
    mailbox = Store(env)
    spent = [] if spent is None else spent

    def batch(delays, value, callback):
        if batched:
            return env.timeout_batch(delays, value, callback)
        timeouts = [env.timeout(delay, value) for delay in delays]
        if callback is not None:
            for timeout in timeouts:
                timeout.callbacks.append(callback)
        return timeouts

    def let_go(timeout):
        """Nothing waits on ``timeout`` any more."""
        if not timeout.processed:
            spent.append(timeout)
            if withdraw:
                assert timeout.cancel()

    def tick(event):
        log.append((env.now, "tick", event.value))

    def epoch():
        yield env.timeout(rng.uniform(0.0, 5.0))
        # Half-millisecond grid: ties within a batch, across the two
        # batches and against the singles.
        first = sorted(rng.randrange(0, 60) * 0.5 for _ in range(30))
        second = sorted(rng.randrange(10, 90) * 0.5 for _ in range(30))
        before = env.timeout(first[4], value="before")
        ones = batch(first, "first", tick)
        after = env.timeout(first[4], value="after")
        twos = batch([0.0] + second, "second", tick)
        spares = [env.timeout(rng.randrange(0, 120) * 0.5) for _ in range(96)]
        # Queued after ``ones``, so even its head (tied with ``ones[0]``)
        # is still queued when ``ones[0]`` lets go of its tail.
        spare_batch = batch(first[:4], "spare", None)

        def let_go_of_spares(event):
            queued = len(env._pending)
            for timeout in [spare_batch[-1]] + spares:
                let_go(timeout)
            if withdraw:
                assert len(env._pending) < queued  # compacted in place

        for index, timeout in enumerate(ones):
            timeout.callbacks.append(
                lambda event, index=index: log.append((env.now, index))
            )
        ones[0].callbacks.append(let_go_of_spares)
        before.callbacks.append(tick)
        after.callbacks.append(tick)
        yield env.all_of([ones[-1], twos[-1], before, after])
        log.append((env.now, "epoch"))

    def worker(wid):
        for i in range(rng.randint(3, 9)):
            request = cores.request()
            yield request
            try:
                yield env.timeout(rng.expovariate(0.1))
            finally:
                cores.release(request)
            log.append((env.now, "work", wid, i))
            roll = rng.random()
            if roll < 0.2:
                mailbox.put_nowait((wid, i))
            elif roll < 0.4:
                yield mailbox.put((wid, i))
            elif roll < 0.6:
                yield env.timeout(0.0)
        return wid

    def consumer():
        while True:
            item = yield mailbox.get()
            if item is None:
                return
            log.append((env.now, "got", item))

    def sleeper():
        try:
            yield env.event()  # never triggered: only the interrupt wakes it
        except Interrupt as interrupt:
            log.append((env.now, "interrupted", interrupt.cause))

    def failing():
        yield env.timeout(rng.uniform(1.0, 30.0))
        raise RuntimeError("worker crashed")

    def root():
        eater = env.process(consumer())
        sleepy = env.process(sleeper())
        ticks = env.process(epoch())
        workers = []
        for wid in range(40):
            workers.append(env.process(worker(wid)))
            yield env.timeout(rng.expovariate(1.0))
        deadline = env.timeout(rng.uniform(5.0, 60.0))
        race = env.any_of([workers[0], deadline])
        try:
            first = yield race
        finally:
            if race.triggered:
                let_go(deadline)
        log.append((env.now, "any_of", sorted(map(str, first.values()))))
        try:
            yield env.process(failing())
        except RuntimeError as exc:
            log.append((env.now, "failed", str(exc)))
        sleepy.interrupt("wake up")
        joined = yield env.all_of(
            workers if deadline in spent else workers + [deadline]
        )
        log.append((env.now, "all_of", len(joined)))
        mailbox.put_nowait(None)
        yield eater
        yield sleepy
        yield ticks
        return env.now

    return env.process(root())


def _drive_run(env, done, errors):
    env.run()


def _drive_until_event(env, done, errors):
    env.run(until=done)


def _drive_limit_slices(env, done, errors):
    """The e2e benchmark's drive: ``run(until=done, limit=n)`` slices."""
    n = 1
    while not done.processed:
        try:
            env.run(until=done, limit=n)
        except SimulationError as exc:
            if env.peek() == float("inf"):
                raise
            errors.append(str(exc))
        n = n % 7 + 1


def _drive_until_time_steps(env, done, errors):
    """Clock steps that land both mid-gap and exactly on event times."""
    while env.peek() != float("inf"):
        env.run(until=min(env.now + 0.7, env.peek()))


def _drive_step(env, done, errors):
    while True:
        try:
            env.step()
        except SimulationError as exc:
            errors.append(str(exc))
            return


DRIVES = {
    "run": _drive_run,
    "run_until_event": _drive_until_event,
    "limit_slices": _drive_limit_slices,
    "until_time_steps": _drive_until_time_steps,
    "step": _drive_step,
}


def _simulate(seed, drive, batched=True, withdraw=True, spent=None):
    """One seeded run under ``drive``, with the engine's error paths probed."""
    env = Environment()
    log, errors = [], []
    done = _mixed_workload(
        env, random.Random(seed), log, batched, withdraw, spent
    )
    with pytest.raises(SimulationError) as no_budget:
        env.run(until=done, limit=0)
    errors.append(str(no_budget.value))
    DRIVES[drive](env, done, errors)
    assert done.processed and env.peek() == float("inf")
    # Every withdrawn entry was dropped and counted out exactly once.
    assert env._withdrawn == 0 and env._pending == []
    for probe in (lambda: env.run(until=env.event()), env.step):
        with pytest.raises(SimulationError) as empty:
            probe()
        errors.append(str(empty.value))
    return {
        "log": log,
        "now": env.now,
        "events": env.events_processed,
        "value": done.value,
        "errors": errors,
    }


class TestEnvironmentBackendEquivalence:
    """The same seeded workload with its batches queued by
    ``timeout_batch`` and by sequential ``timeout()`` calls, whatever
    drives it: every ``run`` mode, limit slices and ``step``."""

    @pytest.mark.parametrize("drive", sorted(DRIVES))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_events_processed_and_trace_identical(self, seed, drive):
        reference = _simulate(seed, "run", batched=False)
        assert any(entry[1] == "got" for entry in reference["log"])
        batched = _simulate(seed, drive)
        sequential = _simulate(seed, drive, batched=False)
        assert batched == sequential
        for key in ("log", "now", "events", "value"):
            assert batched[key] == reference[key], key
        errors = batched["errors"]
        assert errors[0] == "event limit of 0 reached at t=0.0"
        assert errors[-2:] == [
            "event queue empty before target event triggered",
            "event queue is empty",
        ]
        if drive == "limit_slices":
            assert len(errors) > 10
            assert all(e.startswith("event limit of ") for e in errors[:-2])
            # Some slice stops between two entries of one batch.
            ticks = [e[0] for e in batched["log"] if e[1:2] == ("tick",)]
            stops = [float(e.rsplit("t=", 1)[1]) for e in errors[1:-2]]
            assert any(ticks[0] < stop < ticks[-1] for stop in stops)


class TestWithdrawnTimeouts:
    """The workload with its spent timeouts withdrawn against a
    reference that leaves them queued with no callbacks."""

    @pytest.mark.parametrize("drive", sorted(DRIVES))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_withdrawing_changes_only_the_event_count(self, seed, drive):
        kept, withdrawn = [], []
        reference = _simulate(seed, drive, withdraw=False, spent=kept)
        result = _simulate(seed, drive, spent=withdrawn)
        for key in ("log", "now", "value"):
            assert result[key] == reference[key], key
        assert len(withdrawn) == len(kept) > 10
        assert not any(timeout.processed for timeout in withdrawn)
        fired = sum(timeout.processed for timeout in kept)
        assert fired == len(kept)  # all were due before the root's end
        assert reference["events"] - result["events"] == fired

    def test_withdrawn_batch_tail_is_counted_until_dropped(self):
        """A batch's tail withdrawn before its predecessor queues it is
        counted from the withdrawal and dropped once it is queued."""
        env = Environment()
        head, tail = env.timeout_batch([1.0, 2.0])
        assert tail.cancel()
        assert env._withdrawn == 1 and len(env._pending) == 1
        assert env.peek() == 1.0
        env.step()
        assert head.processed and len(env._pending) == 1
        assert env.peek() == float("inf")
        assert env._withdrawn == 0 and env.now == 1.0
        assert env.events_processed == 1


class TestBatchScheduling:
    def test_timeout_batch_equals_sequential_timeouts(self):
        delays = [0.0, 0.0, 0.5, 0.5, 1.25, 7.0, 7.0, 9_999.0]
        batch_env = Environment()
        seq_env = Environment()
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
        env.timeout(3.0)
        eid = env._eid
        assert env.timeout_batch([]) == []
        with pytest.raises(ValueError, match="negative delay"):
            env.timeout_batch([-1.0])
        with pytest.raises(ValueError, match="ascending"):
            env.timeout_batch([1.0, 2.0, 5.0, 1.0, 6.0])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="non-finite delay"):
                env.timeout_batch([1.0, 2.0, bad, 3.0])
        assert len(env._pending) == 1
        assert env._eid == eid
        assert env.run() is None
        assert env.events_processed == 1

    def test_timeout_batch_holds_one_heap_slot(self):
        """A batch is queued one timeout at a time, each successor
        before the pre-seeded callback runs, and fires in order."""
        env = Environment()
        fired = []
        timeouts = env.timeout_batch(
            range(100_000),
            callback=lambda event: fired.append((env.now, env.peek())),
        )
        assert len(env._pending) == 1
        env.run()
        assert fired == [
            (float(delay), float(delay + 1)) for delay in range(99_999)
        ] + [(99_999.0, float("inf"))]
        assert env.events_processed == 100_000
        assert all(timeout.processed for timeout in timeouts)

    def test_timeout_batch_interleaves_with_singles_by_insertion_id(self):
        """Batch entries tie-break against singles exactly by creation order."""
        log = []
        for batched in (False, True):
            env = Environment()
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
