"""Engine tests: events, timeouts, processes, conditions, interrupts."""

from __future__ import annotations

import gc

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)


class TestClock:
    def test_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_custom_start_time(self):
        assert Environment(initial_time=42.0).now == 42.0

    def test_run_until_time_advances_clock(self, env):
        env.run(until=125.0)
        assert env.now == 125.0

    def test_run_until_past_time_rejected(self):
        env = Environment(initial_time=100.0)
        with pytest.raises(ValueError):
            env.run(until=50.0)

    def test_peek_empty_queue_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_step_empty_queue_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()


class TestTimeout:
    def test_timeout_fires_at_delay(self, env):
        fired = []

        def proc():
            yield env.timeout(10.0)
            fired.append(env.now)

        env.process(proc())
        env.run()
        assert fired == [10.0]

    def test_timeout_value_passed_to_process(self, env):
        got = []

        def proc():
            value = yield env.timeout(1.0, value="payload")
            got.append(value)

        env.process(proc())
        env.run()
        assert got == ["payload"]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_non_finite_delay_rejected_before_queueing(self, env):
        """A bad delay must fail before the queue counts it: a counted but
        unplaced entry leaves ``len == 1`` over an empty queue, and
        ``peek`` spins on it forever."""
        with pytest.raises(ValueError, match="non-finite delay"):
            env.timeout(float("nan"))
        with pytest.raises(ValueError, match="non-finite delay"):
            env.timeout(float("inf"))
        assert len(env._pending) == 0
        assert env.peek() == float("inf")
        assert env.run() is None
        assert env.events_processed == 0

    def test_zero_delay_allowed(self, env):
        done = []

        def proc():
            yield env.timeout(0.0)
            done.append(env.now)

        env.process(proc())
        env.run()
        assert done == [0.0]

    def test_timeouts_fire_in_order(self, env):
        order = []

        def proc(delay, tag):
            yield env.timeout(delay)
            order.append(tag)

        env.process(proc(30, "c"))
        env.process(proc(10, "a"))
        env.process(proc(20, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo_order(self, env):
        order = []

        def proc(tag):
            yield env.timeout(5)
            order.append(tag)

        for tag in ("x", "y", "z"):
            env.process(proc(tag))
        env.run()
        assert order == ["x", "y", "z"]


class TestEvent:
    def test_succeed_delivers_value(self, env):
        event = env.event()
        got = []

        def waiter():
            got.append((yield event))

        def trigger():
            yield env.timeout(5)
            event.succeed(99)

        env.process(waiter())
        env.process(trigger())
        env.run()
        assert got == [99]

    def test_value_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_double_succeed_rejected(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_raises_in_waiter(self, env):
        event = env.event()
        caught = []

        def waiter():
            try:
                yield event
            except RuntimeError as exc:
                caught.append(str(exc))

        def trigger():
            yield env.timeout(1)
            event.fail(RuntimeError("boom"))

        env.process(waiter())
        env.process(trigger())
        env.run()
        assert caught == ["boom"]

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_unhandled_failure_propagates_from_run(self, env):
        event = env.event()
        event.fail(ValueError("unhandled"))
        with pytest.raises(ValueError, match="unhandled"):
            env.run()

    def test_multiple_waiters_all_resumed(self, env):
        event = env.event()
        got = []

        def waiter(tag):
            value = yield event
            got.append((tag, value, env.now))

        env.process(waiter("a"))
        env.process(waiter("b"))

        def trigger():
            yield env.timeout(3)
            event.succeed("v")

        env.process(trigger())
        env.run()
        assert got == [("a", "v", 3.0), ("b", "v", 3.0)]


class TestProcess:
    def test_return_value_via_run_until(self, env):
        def proc():
            yield env.timeout(5)
            return "done"

        assert env.run(until=env.process(proc())) == "done"

    def test_process_is_waitable(self, env):
        def inner():
            yield env.timeout(7)
            return 13

        def outer():
            value = yield env.process(inner())
            return value * 2

        assert env.run(until=env.process(outer())) == 26

    def test_yield_non_event_raises(self, env):
        def proc():
            yield 42

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()

    def test_exception_in_process_propagates(self, env):
        def proc():
            yield env.timeout(1)
            raise KeyError("inside")

        with pytest.raises(KeyError):
            env.run(until=env.process(proc()))

    def test_waiting_on_already_processed_event(self, env):
        timeout = env.timeout(1)
        env.run(until=5)
        assert timeout.processed

        def proc():
            value = yield timeout
            return value

        # Must not hang: the event already fired.
        assert env.run(until=env.process(proc())) is None

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_finished_process_is_freed_by_reference_counting(self, env):
        """A process holds its own resume callback while alive; the
        cycle must be broken on exit so no collector pass is needed."""

        def proc():
            yield env.timeout(1)
            return "done"

        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            last = None
            for _ in range(50):
                last = env.process(proc())
            env.run()
            assert last.value == "done"
            del last
            leaked = [
                obj
                for obj in gc.get_objects(generation=0)
                if isinstance(obj, Process)
            ]
        finally:
            if was_enabled:
                gc.enable()
        assert leaked == []

    def test_is_alive_lifecycle(self, env):
        def proc():
            yield env.timeout(10)

        process = env.process(proc())
        assert process.is_alive
        env.run()
        assert not process.is_alive


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        causes = []

        def victim():
            try:
                yield env.timeout(100)
            except Interrupt as interrupt:
                causes.append((interrupt.cause, env.now))

        target = env.process(victim())

        def attacker():
            yield env.timeout(5)
            target.interrupt("stop it")

        env.process(attacker())
        env.run()
        assert causes == [("stop it", 5.0)]

    def test_interrupted_process_can_continue(self, env):
        trace = []

        def victim():
            try:
                yield env.timeout(100)
            except Interrupt:
                trace.append("interrupted")
            yield env.timeout(10)
            trace.append(env.now)

        target = env.process(victim())

        def attacker():
            yield env.timeout(5)
            target.interrupt()

        env.process(attacker())
        env.run()
        assert trace == ["interrupted", 15.0]

    def test_interrupt_finished_process_raises(self, env):
        def quick():
            yield env.timeout(1)

        process = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            process.interrupt()

    def test_stale_target_does_not_resume_twice(self, env):
        resumed = []

        def victim():
            try:
                yield env.timeout(10)
            except Interrupt:
                pass
            yield env.timeout(50)
            resumed.append(env.now)

        target = env.process(victim())

        def attacker():
            yield env.timeout(1)
            target.interrupt()

        env.process(attacker())
        env.run()
        # The original timeout at t=10 must not resume the process; the
        # post-interrupt timeout lands at 1 + 50.
        assert resumed == [51.0]


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        def proc():
            yield AllOf(env, [env.timeout(5), env.timeout(20), env.timeout(10)])
            return env.now

        assert env.run(until=env.process(proc())) == 20.0

    def test_any_of_fires_on_first(self, env):
        def proc():
            yield AnyOf(env, [env.timeout(50), env.timeout(3)])
            return env.now

        assert env.run(until=env.process(proc())) == 3.0

    def test_any_of_does_not_fire_on_merely_scheduled(self, env):
        """A pending (unprocessed) timeout must not satisfy AnyOf."""

        def proc():
            slow = env.timeout(100)
            fast = env.timeout(10)
            yield AnyOf(env, [slow, fast])
            return env.now

        assert env.run(until=env.process(proc())) == 10.0

    def test_all_of_collects_values(self, env):
        def proc():
            first = env.timeout(1, value="a")
            second = env.timeout(2, value="b")
            values = yield AllOf(env, [first, second])
            return (values[first], values[second])

        assert env.run(until=env.process(proc())) == ("a", "b")

    def test_empty_all_of_fires_immediately(self, env):
        def proc():
            yield AllOf(env, [])
            return env.now

        assert env.run(until=env.process(proc())) == 0.0

    def test_all_of_fails_fast(self, env):
        event = env.event()

        def failer():
            yield env.timeout(1)
            event.fail(RuntimeError("nope"))

        def proc():
            try:
                yield AllOf(env, [event, env.timeout(100)])
            except RuntimeError:
                return env.now

        env.process(failer())
        assert env.run(until=env.process(proc())) == 1.0

    def test_all_of_counts_only_pending_components(self, env):
        """An already-processed component is not counted down again."""
        done = env.timeout(1, value="done")
        env.run(until=2)
        first, second = env.timeout(3, value="a"), env.timeout(5, value="b")
        condition = env.all_of([done, first, second])
        assert condition._outstanding == 2
        env.run(until=first)
        assert condition._outstanding == 1
        assert not condition.triggered
        assert env.run(until=condition) == {
            done: "done", first: "a", second: "b"
        }
        assert env.now == 7.0

    def test_all_of_over_processed_components_fires_now(self, env):
        events = [env.timeout(1, value=i) for i in range(3)]
        env.run()
        condition = env.all_of(events)
        assert condition._outstanding == 0
        assert env.run(until=condition) == {e: i for i, e in enumerate(events)}
        assert env.now == 1.0

    def test_env_helpers(self, env):
        def proc():
            yield env.all_of([env.timeout(2)])
            yield env.any_of([env.timeout(3), env.timeout(9)])
            return env.now

        assert env.run(until=env.process(proc())) == 5.0

    # -- what a fired condition keeps and what it drops ------------------
    @staticmethod
    def _checks(condition, event):
        """The callbacks ``condition`` left on ``event``."""
        return [
            callback
            for callback in event.callbacks
            if getattr(callback, "__self__", None) is condition
        ]

    def test_fired_any_of_releases_the_loser(self, env):
        winner, loser = env.timeout(1), env.timeout(10)
        woken = []

        def waiter():
            yield loser
            woken.append(env.now)

        other = env.process(waiter())
        env.step()  # the waiter now waits on ``loser``
        condition = env.any_of([winner, loser])
        assert self._checks(condition, loser)
        env.run(until=condition)
        assert self._checks(condition, loser) == []
        assert loser.callbacks == [other._resume]
        env.run()
        assert woken == [10.0]

    def test_loser_failing_later_is_still_defused(self, env):
        winner, loser = env.timeout(1), env.event()

        def failer():
            yield env.timeout(5)
            loser.fail(RuntimeError("late"))

        condition = env.any_of([winner, loser])
        env.process(failer())
        assert env.run(until=condition) == {winner: None}
        env.run()  # must not raise the late failure
        assert loser.processed and not loser.ok

    def test_failed_all_of_releases_every_pending_component(self, env):
        bad = env.event()
        first, second = env.timeout(10), env.timeout(20)
        condition = env.all_of([bad, first, second])

        def failer():
            yield env.timeout(1)
            bad.fail(RuntimeError("nope"))

        env.process(failer())
        with pytest.raises(RuntimeError):
            env.run(until=condition)
        assert self._checks(condition, first) == []
        assert self._checks(condition, second) == []
        env.run()
        assert env.now == 20.0

    def test_component_listed_twice_keeps_no_check(self, env):
        winner, twice = env.timeout(1), env.timeout(10)
        condition = env.any_of([winner, twice, twice])
        assert len(self._checks(condition, twice)) == 2
        env.run(until=condition)
        assert self._checks(condition, twice) == []

    def test_condition_fired_during_construction_releases(self, env):
        done = env.timeout(1, value="done")
        env.run()
        pending = env.timeout(5)
        condition = env.any_of([done, pending])
        assert condition.triggered
        assert self._checks(condition, pending) == []
        assert env.run(until=condition) == {done: "done"}

    def test_nested_condition_is_released_not_emptied(self, env):
        """The outer condition drops its check from the inner one but
        leaves the inner one's own checks: another process waits on it."""
        first, second = env.timeout(5), env.timeout(8)
        inner = env.all_of([first, second])
        woken = []

        def waiter():
            yield inner
            woken.append(env.now)

        env.process(waiter())
        outer = env.any_of([env.timeout(1), inner])
        env.run(until=outer)
        assert self._checks(outer, inner) == []
        assert self._checks(inner, first) and self._checks(inner, second)
        env.run()
        assert inner.processed and woken == [8.0]


class TestRunUntilEvent:
    def test_run_until_event_returns_value(self, env):
        def proc():
            yield env.timeout(4)
            return "value"

        assert env.run(until=env.process(proc())) == "value"

    def test_run_until_event_never_triggered_raises(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            env.run(until=event)

    def test_run_without_until_drains_queue(self, env):
        done = []

        def proc():
            yield env.timeout(10)
            done.append(True)

        env.process(proc())
        env.run()
        assert done == [True]
        assert env.now == 10.0


class TestStart:
    """``Environment.start``: the first step runs inside the caller's."""

    def test_first_step_runs_before_start_returns(self, env):
        steps = []

        def proc():
            steps.append(("first", env.now, env.active_process))
            yield env.timeout(3)
            steps.append(("second", env.now))

        process = env.start(proc())
        assert steps == [("first", 0.0, process)]
        assert env.active_process is None
        env.run()
        assert steps[-1] == ("second", 3.0)

    def test_process_keeps_its_queued_first_step(self, env):
        steps = []

        def proc():
            steps.append(env.now)
            yield env.timeout(3)

        env.process(proc())
        assert steps == []
        env.step()  # the Initialize event
        assert steps == [0.0]

    def test_starting_costs_no_event(self, env):
        def proc():
            yield env.timeout(3)

        env.run(until=env.process(proc()))
        queued = env.events_processed
        env.run(until=env.start(proc()))
        # Initialize, timeout and completion; timeout and completion.
        assert (queued, env.events_processed - queued) == (3, 2)

    def test_caller_is_the_active_process_again_afterwards(self, env):
        seen = []

        def inner():
            seen.append(("inner", env.active_process))
            yield env.timeout(1)

        def outer():
            child = env.start(inner())
            seen.append(("outer", env.active_process, child))
            yield child

        parent = env.process(outer())
        env.run()
        (_, in_child), (_, in_parent, child) = seen
        assert in_child is child
        assert in_parent is parent

    def test_exception_in_first_step_fails_the_process(self, env):
        def broken():
            raise KeyError("first step")
            yield  # pragma: no cover - makes this a generator

        caught = []

        def caller():
            process = env.start(broken())  # does not raise here
            assert process.triggered and not process.ok
            try:
                yield process
            except KeyError as error:
                caught.append(error.args[0])

        env.run(until=env.process(caller()))
        assert caught == ["first step"]

    def test_unwaited_failure_still_surfaces(self, env):
        def broken():
            raise KeyError("first step")
            yield  # pragma: no cover - makes this a generator

        env.start(broken())
        with pytest.raises(KeyError):
            env.run()

    def test_generator_returning_at_once_triggers(self, env):
        def immediate():
            return 7
            yield  # pragma: no cover - makes this a generator

        process = env.start(immediate())
        assert process.triggered and not process.processed
        assert env.run(until=process) == 7
        assert env.events_processed == 1

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.start(lambda: None)


class TestTimeoutAt:
    """``Environment.timeout_at``: a timeout at an absolute time."""

    def test_fires_at_exactly_the_given_time(self):
        env = Environment(0.1)
        # Two stages of 0.2 and 0.3 ms end here; one relative timeout
        # of their sum would end at 0.1 + 0.5 == 0.6, a different float.
        when = (0.1 + 0.2) + 0.3
        assert env.now + (0.2 + 0.3) != when
        fired = []
        env.timeout_at(when).callbacks.append(lambda event: fired.append(env.now))
        env.run()
        assert fired == [when]

    def test_fires_where_a_relative_delay_cannot(self):
        env = Environment(1.0)
        when = 2.0**53 + 2
        assert env.now + (when - env.now) != when
        timeout = env.timeout_at(when, value="v")
        assert env.run(until=timeout) == "v"
        assert env.now == when

    def test_now_is_allowed(self, env):
        env.run(until=4.0)
        timeout = env.timeout_at(4.0)
        env.run()
        assert timeout.processed and env.now == 4.0

    def test_past_time_rejected_before_queueing(self, env):
        env.run(until=5.0)
        with pytest.raises(ValueError, match="in the past"):
            env.timeout_at(4.0)
        assert env.peek() == float("inf")

    @pytest.mark.parametrize("when", [float("inf"), float("nan")])
    def test_non_finite_time_rejected_before_queueing(self, env, when):
        with pytest.raises(ValueError, match="non-finite time"):
            env.timeout_at(when)
        assert env.peek() == float("inf")


class TestRace:
    """``Environment.race``: an awaited event against a watchdog that
    wakes the process itself, with no ``AnyOf`` event between them."""

    def test_event_first_withdraws_the_watchdog(self, env):
        def proc():
            event = env.timeout(3, value="answer")
            value = yield from env.race(event, 10)
            return value, env.now, event.processed

        assert env.run(until=env.process(proc())) == ("answer", 3.0, True)
        assert env.peek() == float("inf")
        # Initialize, the awaited timeout, the completion: no AnyOf.
        assert env.events_processed == 3

    def test_watchdog_first_lets_the_event_go(self, env):
        log = []

        def proc():
            event = env.timeout(10, value="answer")
            value = yield from env.race(event, 3)
            log.append((value, env.now, event.processed))
            yield env.timeout(20)  # past the event: it must not wake us
            log.append(("done", env.now))

        env.process(proc())
        env.run()
        assert log == [(None, 3.0, False), ("done", 23.0)]

    @pytest.mark.parametrize("awaited", ["timeout", "process"])
    def test_a_tie_goes_to_the_one_any_of_picks(self, awaited):
        """Both due at t=5: the race's winner is the component ``AnyOf``
        reports.  A timeout made before the watchdog is processed first;
        a process completes only once its last timeout is processed, so
        its completion is queued behind the watchdog."""

        def winner(use_race):
            env = Environment()

            def child():
                yield env.timeout(5)
                return "answer"

            def waiter():
                if awaited == "timeout":
                    event = env.timeout(5, value="answer")
                else:
                    event = env.start(child())
                if use_race:
                    value = yield from env.race(event, 5)
                    return "event" if value == "answer" else "watchdog"
                watchdog = env.timeout(5, value="watchdog")
                fired = yield AnyOf(env, [event, watchdog])
                return "event" if event in fired else "watchdog"

            return env.run(until=env.process(waiter()))

        assert winner(use_race=True) == winner(use_race=False)
        assert winner(use_race=True) == (
            "event" if awaited == "timeout" else "watchdog"
        )

    def test_interrupt_while_racing_withdraws_the_watchdog(self, env):
        log = []

        def victim():
            try:
                yield from env.race(env.timeout(50), 10)
            except Interrupt as interrupt:
                log.append((interrupt.cause, env.now))
            yield env.timeout(20)  # past the watchdog's due time
            log.append(("done", env.now))

        target = env.process(victim())

        def attacker():
            yield env.timeout(5)
            target.interrupt("stop")

        env.process(attacker())
        env.run()
        assert log == [("stop", 5.0), ("done", 25.0)]
        assert env.now == 50.0  # the awaited timeout fired unwaited
        assert env._withdrawn == 0  # the watchdog entry was dropped

    def test_closing_the_generator_withdraws_the_watchdog(self, env):
        def waiter():
            yield from env.race(env.event(), 10)

        process = env.start(waiter())
        assert env.peek() == 10.0
        process._generator.close()
        assert env.peek() == float("inf")

    def test_failed_event_raises_in_the_racer(self, env):
        def failing():
            yield env.timeout(2)
            raise KeyError("node")

        def proc():
            try:
                yield from env.race(env.start(failing()), 10)
            except KeyError:
                return env.now

        assert env.run(until=env.process(proc())) == 2.0
        assert env.peek() == float("inf")

    def test_a_loser_failing_later_is_defused(self, env):
        """As ``AnyOf`` defuses its losers: an awaited process that
        fails after the watchdog won raises nowhere."""

        def failing():
            yield env.timeout(10)
            raise KeyError("late")

        def proc():
            yield from env.race(env.start(failing()), 3)
            return env.now

        assert env.run(until=env.process(proc())) == 3.0
        env.run()  # the late failure is not raised
        assert env.now == 10.0

    def test_outside_a_process_is_refused(self, env):
        with pytest.raises(SimulationError, match="inside a process"):
            next(env.race(env.event(), 10))
