"""Synchronization primitives built on the event loop.

:class:`Resource` models a pool of identical slots (CPU cores, the
interconnect's NICs); its :meth:`~Resource.claim` takes a free slot
with no grant event.
:class:`Store` models a FIFO hand-off queue (the platform work queue,
message-bus topics).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, List

from repro.sim.core import (
    NORMAL,
    PENDING,
    PROCESSED,
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

    :meth:`Resource.claim` makes one that is already processed when a
    slot is free, so the process waits on it only while it is queued.
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
            now = env.now
            eid = env._eid = env._eid + 1
            heappush(env._pending, (now, NORMAL, eid, self))
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
        """Claim a slot: granted now if one is free, else queued FIFO.

        The grant is an event even when a slot is free: a process that
        yields the request wakes through it at the current instant.
        """
        return Request(self)

    def claim(self) -> Request:
        """Claim a slot, with no grant event when one is free.

        A free slot is held at once and the claim comes back already
        processed: nothing is queued, and the claimant carries on in its
        own step.  With every slot held it queues FIFO behind earlier
        requests and claims, and :meth:`release` grants it through an
        event, as it grants a request.  So the claimant yields it only
        while it is queued::

            claim = resource.claim()
            if not claim.processed:
                yield claim
        """
        users = self.users
        if len(users) >= self.capacity:
            return Request(self)
        claim = Request.__new__(Request)
        claim.env = self.env
        claim.callbacks = []
        claim._value = None
        claim._ok = True
        claim._state = PROCESSED
        claim._defused = False
        claim.resource = self
        users.append(claim)
        return claim

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
    ``put_nowait`` and ``get_nowait`` hand an item over with no event.
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

        A waiting getter is served first (its event triggers as usual),
        else the item is appended — no event is scheduled for the put
        itself.  Only legal on an unbounded store, where ``put`` never
        blocks: the acceptance event skipped here is one the caller
        would not wait for.
        """
        if self.capacity != float("inf"):
            raise SimulationError("put_nowait requires an unbounded store")
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        event = Event(self.env)
        if self.items:
            event.succeed(self.items.popleft())
            if self._putters:
                self._admit_putters()
        else:
            self._getters.append(event)
        return event

    def get_nowait(self) -> Any:
        """Take the next item without an event; ``IndexError`` if the
        store is empty.

        ``get`` pops a held item at once too, but hands it over through
        an event that wakes the getter at the same instant; a caller
        that takes the item here carries on in its own step instead.
        """
        item = self.items.popleft()
        if self._putters:
            self._admit_putters()
        return item

    def _admit_putters(self) -> None:
        """Accept blocked puts into the room a get just made."""
        while self._putters and len(self.items) < self.capacity:
            putter, item = self._putters.popleft()
            self.items.append(item)
            putter.succeed()
