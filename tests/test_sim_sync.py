"""Resource and Store tests."""

from __future__ import annotations

import pytest

from repro.sim import Environment, Resource, SimulationError, Store


class TestResource:
    def test_grants_up_to_capacity(self, env):
        resource = Resource(env, capacity=2)
        first = resource.request()
        second = resource.request()
        third = resource.request()
        assert first.triggered and second.triggered
        assert not third.triggered
        assert resource.count == 2

    def test_release_grants_next_in_fifo_order(self, env):
        resource = Resource(env, capacity=1)
        first = resource.request()
        second = resource.request()
        third = resource.request()
        resource.release(first)
        assert second.triggered
        assert not third.triggered
        resource.release(second)
        assert third.triggered

    def test_release_queued_request_cancels_it(self, env):
        resource = Resource(env, capacity=1)
        held = resource.request()
        queued = resource.request()
        resource.release(queued)  # give up before being granted
        assert resource.count == 1
        late = resource.request()
        resource.release(held)
        assert late.triggered

    def test_release_unknown_request_raises(self, env):
        resource = Resource(env, capacity=1)
        foreign = Resource(env, capacity=1).request()
        with pytest.raises(Exception):
            resource.release(foreign)

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_contention_serializes_processes(self, env):
        resource = Resource(env, capacity=1)
        finish_times = []

        def worker():
            request = resource.request()
            yield request
            try:
                yield env.timeout(10)
            finally:
                resource.release(request)
            finish_times.append(env.now)

        for _ in range(3):
            env.process(worker())
        env.run()
        assert finish_times == [10.0, 20.0, 30.0]

    def test_parallel_capacity(self, env):
        resource = Resource(env, capacity=3)
        finish_times = []

        def worker():
            request = resource.request()
            yield request
            try:
                yield env.timeout(10)
            finally:
                resource.release(request)
            finish_times.append(env.now)

        for _ in range(3):
            env.process(worker())
        env.run()
        assert finish_times == [10.0, 10.0, 10.0]


class TestResourceClaim:
    def test_free_slot_is_held_at_once_without_an_event(self, env):
        resource = Resource(env, capacity=2)
        claim = resource.claim()
        assert claim.processed and claim.ok and claim.value is None
        assert resource.users == [claim] and resource.count == 1
        assert env._pending == []
        env.run()
        assert env.events_processed == 0

    def test_a_process_carries_on_in_its_own_step(self, env):
        resource = Resource(env, capacity=1)
        held_at = []

        def worker():
            claim = resource.claim()
            if not claim.processed:
                yield claim
            held_at.append(env.now)
            yield env.timeout(5)
            resource.release(claim)

        env.run(until=3.0)
        env.start(worker())
        assert held_at == [3.0] and resource.count == 1
        env.run()
        # The timeout and the process's end; no grant.
        assert env.events_processed == 2
        assert resource.count == 0

    def test_full_resource_queues_fifo_and_release_grants_through_one_event(
        self, env
    ):
        resource = Resource(env, capacity=1)
        held = resource.claim()
        first, second = resource.claim(), resource.claim()
        assert not first.triggered and not second.triggered
        assert list(resource.queue) == [first, second]
        assert env._pending == []
        env.run(until=5.0)
        resource.release(held)
        assert resource.users == [first] and list(resource.queue) == [second]
        # One grant event, at the release instant.
        assert [(when, event) for when, _, _, event in env._pending] == [
            (5.0, first)
        ]
        env.run()
        assert first.processed and not second.triggered
        assert env.events_processed == 1

    def test_releasing_a_queued_claim_drops_it(self, env):
        resource = Resource(env, capacity=1)
        held = resource.claim()
        queued = resource.claim()
        resource.release(queued)
        assert resource.users == [held] and not resource.queue
        resource.release(held)
        assert resource.count == 0
        assert env._pending == []  # nobody left to grant
        assert not queued.triggered

    def test_mixed_with_requests_keeps_fifo_order(self, env):
        resource = Resource(env, capacity=1)
        finished = []

        def worker(name, kind):
            slot = getattr(resource, kind)()
            if not slot.processed:
                yield slot
            try:
                yield env.timeout(10)
            finally:
                resource.release(slot)
            finished.append((name, env.now))

        kinds = ["request", "claim", "claim", "request", "claim", "request"]
        for index, kind in enumerate(kinds):
            env.process(worker(index, kind))
        env.run()
        assert finished == [(index, 10.0 * (index + 1)) for index in range(6)]


class TestStore:
    def test_put_then_get(self, env):
        store = Store(env)
        store.put("item")
        got = []

        def getter():
            got.append((yield store.get()))

        env.process(getter())
        env.run()
        assert got == ["item"]

    def test_get_blocks_until_put(self, env):
        store = Store(env)
        got = []

        def getter():
            got.append(((yield store.get()), env.now))

        def putter():
            yield env.timeout(7)
            store.put("late")

        env.process(getter())
        env.process(putter())
        env.run()
        assert got == [("late", 7.0)]

    def test_fifo_ordering(self, env):
        store = Store(env)
        for item in ("a", "b", "c"):
            store.put(item)
        got = []

        def getter():
            for _ in range(3):
                got.append((yield store.get()))

        env.process(getter())
        env.run()
        assert got == ["a", "b", "c"]

    def test_capacity_blocks_putter(self, env):
        store = Store(env, capacity=1)
        store.put("first")
        blocked = store.put("second")
        assert not blocked.triggered

        def getter():
            yield store.get()

        env.process(getter())
        env.run()
        assert blocked.triggered
        assert len(store) == 1

    def test_multiple_getters_fifo(self, env):
        store = Store(env)
        got = []

        def getter(tag):
            got.append((tag, (yield store.get())))

        env.process(getter("g1"))
        env.process(getter("g2"))

        def putter():
            yield env.timeout(1)
            store.put("x")
            store.put("y")

        env.process(putter())
        env.run()
        assert got == [("g1", "x"), ("g2", "y")]

    def test_invalid_capacity(self, env):
        with pytest.raises(ValueError):
            Store(env, capacity=0)

    def test_len_tracks_items(self, env):
        store = Store(env)
        assert len(store) == 0
        store.put(1)
        store.put(2)
        assert len(store) == 2


class TestStorePutNowait:
    def test_serves_waiting_getter_first(self, env):
        store = Store(env)
        first, second = store.get(), store.get()
        store.put_nowait("a")
        store.put_nowait("b")
        store.put_nowait("c")
        env.run()
        assert (first.value, second.value) == ("a", "b")
        assert list(store.items) == ["c"]

    def test_schedules_no_event_of_its_own(self, env):
        store = Store(env)
        store.put_nowait("x")
        assert len(env._pending) == 0
        served = store.get()
        waiting = store.get()
        store.put_nowait("y")
        # Only the two getters' triggers are queued, never an acceptance.
        assert len(env._pending) == 2
        env.run()
        assert env.events_processed == 2
        assert (served.value, waiting.value) == ("x", "y")
        assert len(store) == 0

    def test_refuses_bounded_store(self, env):
        store = Store(env, capacity=4)
        with pytest.raises(SimulationError, match="unbounded"):
            store.put_nowait(1)
        assert len(store) == 0


class TestStoreGetNowait:
    def test_takes_in_order_without_an_event(self, env):
        store = Store(env)
        store.put_nowait("a")
        store.put_nowait("b")
        assert store.get_nowait() == "a"
        assert store.get_nowait() == "b"
        assert env.peek() == float("inf")
        assert env.events_processed == 0

    def test_empty_store_raises_index_error(self, env):
        with pytest.raises(IndexError):
            Store(env).get_nowait()

    def test_admits_a_blocked_put(self, env):
        store = Store(env, capacity=1)
        store.put("first")
        blocked = store.put("second")
        assert store.get_nowait() == "first"
        assert blocked.triggered
        assert list(store.items) == ["second"]
