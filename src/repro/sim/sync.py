"""Synchronization primitives built on the event loop.

:class:`Resource` models a pool of identical slots (CPU cores, the shim's
single TCP connection, Docker-daemon worker threads).  :class:`Store`
models a FIFO hand-off queue (the platform work queue, message-bus
topics).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Iterable, List

from repro.sim.core import (
    NORMAL,
    PENDING,
    TRIGGERED,
    Environment,
    Event,
    SimulationError,
)


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Constructing one makes the claim (:meth:`Resource.request`); it
    triggers when the slot is granted.  Must be paired with
    :meth:`Resource.release`, or used via the ``with``-like pattern in
    process code::

        req = resource.request()
        yield req
        try:
            ...  # hold the slot
        finally:
            resource.release(req)
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # Requests are made per invocation step; initialise flat and, if
        # a slot is free, claim it and go straight onto the queue.
        env = resource.env
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._defused = False
        self.resource = resource
        users = resource.users
        if len(users) < resource.capacity:
            users.append(self)
            self._state = TRIGGERED
            now = env._now
            eid = env._eid = env._eid + 1
            env._pending.push((now, NORMAL, eid, self), now)
        else:
            self._state = PENDING
            resource.queue.append(self)


class Resource:
    """A counted resource with FIFO granting."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: List[Request] = []
        self.queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        """Claim a slot: granted now if one is free, else queued FIFO."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a held (or no-longer-wanted) slot."""
        try:
            self.users.remove(request)
        except ValueError:
            # The request never got a slot (e.g. its process was
            # interrupted while queued); drop it from the wait queue.
            try:
                self.queue.remove(request)
            except ValueError:
                raise SimulationError("releasing a request that is not held")
            return
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()


class Store:
    """An unbounded (or bounded) FIFO queue of items.

    ``put`` returns an event that triggers when the item is accepted;
    ``get`` returns an event that triggers with the next item.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        event = Event(self.env)
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
            event.succeed()
        elif len(self.items) < self.capacity:
            self.items.append(item)
            event.succeed()
        else:
            self._putters.append((event, item))
        return event

    def put_nowait(self, item: Any) -> None:
        """Insert ``item`` without an acceptance event.

        The single-item form of :meth:`put_nowait_batch`: a waiting
        getter is served first (its event triggers as usual), else the
        item is appended — no event is scheduled for the put itself.
        Only legal on an unbounded store, where ``put`` never blocks:
        the acceptance event skipped here is one the caller would not
        wait for.
        """
        if self.capacity != float("inf"):
            raise SimulationError("put_nowait requires an unbounded store")
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def put_nowait_batch(self, items: Iterable[Any]) -> int:
        """Bulk insert without per-item acceptance events.

        The batched-producer fast path: waiting getters are served
        first (their events trigger as usual), the remainder lands in
        ``items`` in one ``extend`` — zero events scheduled for it.
        Only legal on an unbounded store, where ``put`` can never
        block, so dropping the acceptance events loses nothing.
        Returns the number of items inserted.
        """
        if self.capacity != float("inf"):
            raise SimulationError(
                "put_nowait_batch requires an unbounded store"
            )
        pending = deque(items)
        count = len(pending)
        while self._getters and pending:
            self._getters.popleft().succeed(pending.popleft())
        if pending:
            self.items.extend(pending)
        return count

    def get(self) -> Event:
        event = Event(self.env)
        if self.items:
            event.succeed(self.items.popleft())
            while self._putters and len(self.items) < self.capacity:
                putter, item = self._putters.popleft()
                self.items.append(item)
                putter.succeed()
        else:
            self._getters.append(event)
        return event
