"""Zero-perturbation pin: the event engine changes nothing observable.

Two layers of evidence:

* Every quick-profile experiment table must hash byte-identically to
  the goldens in ``tests/data/quick_suite_tables.sha256.json``, which
  were captured from the pristine ``heapq`` engine at the parent
  commit.  A deviation in any digit of any of the 21 tables fails here.
  (The ``keepalive`` table, added with the policy lab, is pinned the
  same way so later policy work cannot silently shift its curves.)
* ``Environment`` edge-case semantics (``peek`` on an empty queue,
  ``run(until=...)`` with a past deadline, event limits, draining,
  mid-gap deadlines) keep their exceptions and messages, and a
  withdrawn timeout (``Timeout.cancel``) is invisible to all of them.
"""

import hashlib
import json
import pathlib

import pytest

from repro.experiments import load_all, registry
from repro.sim import AnyOf, Environment, SimulationError

GOLDEN_PATH = (
    pathlib.Path(__file__).parent / "data" / "quick_suite_tables.sha256.json"
)
GOLDEN = json.loads(GOLDEN_PATH.read_text())

load_all()


@pytest.mark.parametrize("experiment_id", sorted(GOLDEN["tables"]))
def test_quick_table_matches_heap_golden(experiment_id):
    """Rendered table text is byte-identical to the heap-engine capture."""
    spec = registry.get(experiment_id)
    result = spec.run(profile="quick")
    digest = hashlib.sha256(result.to_text().encode()).hexdigest()
    assert digest == GOLDEN["tables"][experiment_id], (
        f"{experiment_id}: quick-profile table deviates from the "
        f"heap-engine golden ({GOLDEN['engine']}); the event engine "
        f"perturbed experiment output"
    )


def test_goldens_cover_all_preexisting_experiments():
    """Every golden id is still registered (none silently dropped)."""
    registered = set(registry.ids())
    missing = set(GOLDEN["tables"]) - registered
    assert not missing, f"golden experiments no longer registered: {missing}"


class TestEdgeSemanticsAcrossBackends:
    def test_peek_empty_queue_is_inf(self):
        assert Environment().peek() == float("inf")

    def test_step_empty_queue_raises(self):
        env = Environment()
        with pytest.raises(SimulationError, match="event queue is empty"):
            env.step()

    def test_run_until_past_deadline_raises_value_error(self):
        env = Environment(initial_time=100.0)
        with pytest.raises(ValueError) as excinfo:
            env.run(until=99.5)
        assert str(excinfo.value) == "until=99.5 is in the past (now=100.0)"

    def test_run_until_now_is_a_noop(self):
        env = Environment(initial_time=100.0)
        env.timeout(5.0)
        env.run(until=100.0)
        assert env.now == 100.0
        assert env.events_processed == 0

    def test_event_limit_message_identical(self):
        env = Environment()

        def ticker():
            while True:
                yield env.timeout(1.0)

        env.process(ticker())
        with pytest.raises(SimulationError) as excinfo:
            env.run(limit=10)
        assert str(excinfo.value) == "event limit of 10 reached at t=9.0"

    def test_run_until_event_with_empty_queue_raises(self):
        env = Environment()
        target = env.event()
        with pytest.raises(
            SimulationError, match="event queue empty before target event"
        ):
            env.run(until=target)

    def test_run_until_mid_gap_deadline_advances_clock(self):
        env = Environment()
        fired = []
        t = env.timeout(10.0)
        t.callbacks.append(lambda ev: fired.append(env.now))
        env.run(until=4.5)
        assert env.now == 4.5
        assert fired == []
        env.run(until=20.0)
        assert fired == [10.0]
        assert env.now == 20.0

    def test_peek_then_pop_order_preserved(self):
        """peek() must not disturb pop order."""
        env = Environment()
        fired = []
        for delay in (3.0, 1.0, 2.0, 1.0):
            t = env.timeout(delay, value=delay)
            t.callbacks.append(lambda ev: fired.append((env.now, ev.value)))
        assert env.peek() == 1.0
        env.step()
        assert env.peek() == 1.0
        env.run()
        assert fired == [(1.0, 1.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]

    def test_drain_run_returns_none_and_counts_events(self):
        env = Environment()
        for delay in (1.0, 2.0, 3.0):
            env.timeout(delay)
        assert env.run() is None
        assert env.events_processed == 3
        assert env.peek() == float("inf")

    def test_cancel_after_firing_returns_false(self):
        env = Environment()
        timeout = env.timeout(1.0)
        env.run()
        assert timeout.cancel() is False
        assert env.events_processed == 1

    def test_cancel_twice_withdraws_once(self):
        env = Environment()
        timeout = env.timeout(1.0)
        assert timeout.cancel() is True
        assert timeout.cancel() is False
        assert env.run() is None
        assert env.events_processed == 0 and env.now == 0.0

    def test_cancel_with_a_waiter_attached_raises(self):
        env = Environment()
        waited = env.timeout(1.0)
        raced = env.timeout(2.0)

        def waiter():
            yield waited

        env.process(waiter())
        env.step()  # the process starts and waits on ``waited``
        AnyOf(env, [raced, env.event()])
        # A batch member's merge step counts as a waiter, as does a
        # pre-seeded callback on its tail.
        first, last = env.timeout_batch([3.0, 4.0], callback=lambda ev: None)
        middle = env.timeout_batch([3.0, 4.0])[0]
        for timeout in (waited, raced, first, last, middle):
            with pytest.raises(SimulationError, match="a waiter is attached"):
                timeout.cancel()
        env.run()
        assert all(
            t.processed for t in (waited, raced, first, last, middle)
        )

    def test_waiting_on_a_withdrawn_timeout_raises(self):
        env = Environment()
        seen = []

        def waiter(make_wait):
            timeout = env.timeout(5.0)
            timeout.cancel()
            try:
                yield make_wait(timeout)
            except SimulationError as exc:
                seen.append((env.now, str(exc)))

        env.process(waiter(lambda timeout: timeout))
        env.process(waiter(lambda timeout: env.any_of([timeout])))
        env.run()
        assert [now for now, _ in seen] == [0.0, 0.0]
        assert all("it was withdrawn" in message for _, message in seen)
        assert env.now == 0.0

    def test_peek_skips_withdrawn_entries(self):
        env = Environment()
        early = env.timeout(1.0)
        env.timeout(2.0)
        early.cancel()
        assert env.peek() == 2.0
        env.step()
        assert env.now == 2.0 and env.events_processed == 1
        assert env.peek() == float("inf")

    def test_step_over_only_withdrawn_entries_raises(self):
        env = Environment()
        for delay in (1.0, 2.0):
            env.timeout(delay).cancel()
        with pytest.raises(SimulationError, match="event queue is empty"):
            env.step()
        assert env.now == 0.0 and env.events_processed == 0

    def test_limit_error_only_while_a_live_entry_remains(self):
        env = Environment()
        env.timeout(1.0)
        env.timeout(2.0).cancel()
        env.run(limit=1)  # the one live event: no error
        assert env.now == 1.0

        env = Environment()
        target = env.event()
        env.timeout(1.0)
        env.timeout(2.0).cancel()
        with pytest.raises(
            SimulationError, match="event queue empty before target event"
        ):
            env.run(until=target, limit=1)

        env = Environment()
        target = env.event()
        for delay in (1.0, 2.0, 3.0):
            env.timeout(delay)
        env.timeout(1.5).cancel()
        with pytest.raises(SimulationError) as excinfo:
            env.run(limit=2)
        assert str(excinfo.value) == "event limit of 2 reached at t=2.0"
        with pytest.raises(SimulationError) as excinfo:
            env.run(until=target, limit=0)
        assert str(excinfo.value) == "event limit of 0 reached at t=2.0"
