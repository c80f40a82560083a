"""Core event loop: environment, events, timeouts, and processes.

The engine executes a classic discrete-event loop: events are scheduled
at absolute simulated times, popped in time order, and their callbacks
run with the clock set to the event's time.  Processes are Python
generators that ``yield`` events to wait on them; a process is itself an
event that triggers when its generator returns.

The design mirrors simpy's public surface (``Environment.process``,
``timeout``, ``run(until=...)``, ``AnyOf``/``AllOf``, ``Interrupt``) so
that the component models in the rest of the package read naturally, but
the implementation here is self-contained and dependency-free.

Pending events live in a calendar/bucket queue (:mod:`repro.sim.calendar`)
with O(1) amortized insert and pop at fleet scale, popping in the exact
``(time, priority, insertion id)`` order the historical ``heapq``
engine used.  Bulk producers (trace replay, batched arrival
injection) should prefer :meth:`Environment.schedule_batch` /
:meth:`Environment.timeout_batch`, which insert N pre-sorted events in
one queue pass.

``step()`` and every ``run()`` mode share one dispatch loop
(:meth:`Environment._dispatch`), and the hot event constructors
(``Timeout``, ``Initialize``, process completion, ``Request``,
``Event.succeed``) build their queue entry inline: one ``push`` per
scheduled event, and no call per processed event beyond ``pop`` and
the event's callbacks.
"""

from __future__ import annotations

import sys
from typing import (
    Any,
    Callable,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.sim.calendar import CalendarQueue

#: Event priorities: interrupts must preempt normal callbacks scheduled
#: for the same instant, so they are queued with ``URGENT`` priority.
URGENT = 0
NORMAL = 1

INF = float("inf")


def _bad_delay(delay: float) -> str:
    """Why ``delay`` failed the ``0 <= delay < inf`` check."""
    if delay < 0:
        return f"negative delay {delay}"
    return f"non-finite delay {delay}"


class SimulationError(Exception):
    """Raised for misuse of the engine (e.g. running an empty queue)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries the interrupter's reason (any object).
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


#: First-class name for the exception a cancelled process catches.
#: ``Interrupt`` mirrors simpy; cancellation sites in the platform code
#: read better catching ``Interrupted`` (same class, both importable).
Interrupted = Interrupt


# Event lifecycle states.
PENDING = "pending"
TRIGGERED = "triggered"
PROCESSED = "processed"


class Event:
    """A condition that may occur at some point in simulated time.

    An event starts *pending*.  It becomes *triggered* when given a value
    (:meth:`succeed`) or an exception (:meth:`fail`) and scheduled, and
    *processed* once its callbacks have run.  Processes wait on events by
    yielding them.
    """

    # Events are the engine's unit of allocation — tens of thousands per
    # simulated second — so every subclass stays dict-free via __slots__.
    __slots__ = ("env", "callbacks", "_value", "_ok", "_state", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state: str = PENDING
        #: Set when a failure was delivered to at least one waiter (or
        #: explicitly defused); prevents "unhandled failure" noise.
        self._defused = False

    # -- introspection ------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._state != PENDING

    @property
    def processed(self) -> bool:
        return self._state == PROCESSED

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering ---------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = TRIGGERED
        env = self.env
        now = env._now
        eid = env._eid = env._eid + 1
        env._pending.push((now, NORMAL, eid, self), now)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event will have the exception raised
        at its ``yield``.
        """
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def __repr__(self) -> str:
        return f"<{type(self).__name__} at {id(self):#x} state={self._state}>"


class Timeout(Event):
    """An event that triggers ``delay`` milliseconds in the future."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not 0 <= delay < INF:
            raise ValueError(_bad_delay(delay))
        # Timeouts dominate the schedule; initialise flat (no super()
        # chain) and go straight onto the queue already triggered.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = TRIGGERED
        self._defused = False
        self.delay = delay
        now = env._now
        eid = env._eid = env._eid + 1
        env._pending.push((now + delay, NORMAL, eid, self), now)


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._state = TRIGGERED
        self._defused = False
        now = env._now
        eid = env._eid = env._eid + 1
        env._pending.push((now, URGENT, eid, self), now)


class Process(Event):
    """A running generator; also an event that triggers on its return.

    The generator yields :class:`Event` objects to wait on them.  When a
    yielded event triggers, the generator is resumed with the event's
    value (or the event's exception is thrown into it).  The value of
    the generator's ``return`` statement becomes the process's value.
    """

    __slots__ = ("_generator", "_target", "_resume")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = PENDING
        self._defused = False
        self._generator = generator
        self._target: Optional[Event] = None
        #: The callback every waited-on event gets, bound once (not per
        #: ``yield``).  The bound method references the process, so it
        #: is cleared when the generator exits: a finished process is
        #: freed by reference counting, not left to the cyclic GC.
        self._resume: Optional[Callable[[Event], None]] = self._wake
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._state == PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process as soon as possible."""
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        if self._generator.gi_running:
            raise SimulationError("a process cannot interrupt itself")
        interruption = Event(self.env)
        interruption._ok = False
        interruption._value = Interrupt(cause)
        interruption._defused = True
        interruption.callbacks.append(self._resume)
        self.env._schedule(interruption, priority=URGENT)

    def cancel(self, cause: Any = None) -> bool:
        """Interrupt the process if it is still alive.

        The tolerant form of :meth:`interrupt` for cancellation races:
        cancelling work that already finished (or that is the currently
        running process) is a no-op rather than an error.  Returns
        whether an interrupt was actually delivered.
        """
        if not self.is_alive or self._generator.gi_running:
            return False
        self.interrupt(cause)
        return True

    def _wake(self, event: Event) -> None:
        """Resume the generator with ``event``'s outcome (``_resume``)."""
        if self._state != PENDING:
            # A late interrupt raced with completion (two cancellers at
            # the same instant): the generator already returned, so
            # there is nothing left to throw into.
            return
        # If we were interrupted while waiting, detach from the old target
        # so its eventual trigger does not resume us twice.
        target = self._target
        if target is not None and target is not event:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None

        env = self.env
        env._active_process = self
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event._defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            self._ok = True
            self._value = stop.value
        except BaseException as exc:
            self._ok = False
            self._value = exc
        else:
            env._active_process = None
            if not isinstance(next_event, Event):
                raise SimulationError(
                    f"process yielded non-event {next_event!r}; "
                    f"yield Event objects"
                )
            if next_event._state == PROCESSED:
                # Already over: resume immediately (next loop iteration).
                immediate = Event(env)
                immediate._ok = next_event._ok
                immediate._value = next_event._value
                if not next_event._ok:
                    immediate._defused = True
                    next_event._defused = True
                immediate.callbacks.append(self._resume)
                env._schedule(immediate, priority=URGENT)
            else:
                self._target = next_event
                next_event.callbacks.append(self._resume)
            return
        # The generator exited: trigger the process itself.
        env._active_process = None
        self._resume = None
        self._state = TRIGGERED
        now = env._now
        eid = env._eid = env._eid + 1
        env._pending.push((now, NORMAL, eid, self), now)


class Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composite events.

    A component event counts once it is *processed* (its callbacks have
    run), not merely scheduled — a freshly created Timeout is scheduled
    immediately but must not satisfy a condition until it fires.

    Every component reports to ``_check`` exactly once: a pending one
    when it is processed, an already-processed one during construction.
    """

    __slots__ = ("_events", "_outstanding")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = events = list(events)
        self._outstanding = len(events)
        for event in events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")
        check = self._check
        already_done = []
        for event in events:
            if event._state == PROCESSED:
                already_done.append(event)
            else:
                event.callbacks.append(check)
        for event in already_done:
            check(event)
        if not events:
            self.succeed({})

    def _collect(self) -> dict:
        return {
            event: event._value
            for event in self._events
            if event._state == PROCESSED
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(Condition):
    """Triggers once every component event has been processed OK.

    Fails as soon as any component fails.  ``_outstanding`` counts the
    components that have not reported yet (after construction, exactly
    the pending ones); the condition fires when it reaches zero.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._state != PENDING:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._outstanding -= 1
        if self._outstanding == 0:
            self.succeed(self._collect())


class AnyOf(Condition):
    """Triggers as soon as any component event is processed."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._state != PENDING:
            if not event._ok:
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._collect())


class Environment:
    """The simulation clock and event queue."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._pending = CalendarQueue(start=self._now)
        self._eid = 0
        self._active_process: Optional[Process] = None
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events processed since construction (a cost measure)."""
        return self._events_processed

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- factories ----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------
    def _schedule(self, event: Event, priority: int = NORMAL) -> None:
        """Queue ``event`` at the current instant (the cold paths: fail,
        interrupt, resuming on an already-processed event)."""
        if event._state == PENDING:
            event._state = TRIGGERED
        now = self._now
        eid = self._eid = self._eid + 1
        self._pending.push((now, priority, eid, event), now)

    def schedule_batch(
        self, items: Iterable[Tuple[float, Event]], priority: int = NORMAL
    ) -> None:
        """Schedule pre-triggered events at ascending absolute times.

        ``items`` yields ``(when, event)`` pairs sorted by ``when``
        ascending, with every ``when`` finite and ``>= now``.  The batch
        is inserted in one queue pass, assigning insertion ids in
        iteration order — so the resulting schedule is exactly what N
        sequential ``_schedule`` calls at each ``when`` would have
        built, at a fraction of the cost.  A bad time raises
        ``ValueError`` before any event or the queue is touched.

        The events must already carry their value/outcome (like a
        Timeout does); the engine will fire them as-is.
        """
        now = self._now
        eid = self._eid
        entries: List[Tuple[float, int, int, Event]] = []
        append = entries.append
        last = now
        for when, event in items:
            if not last <= when < INF:
                if when < last:
                    raise ValueError(
                        f"schedule_batch times must be ascending and >= now "
                        f"(got {when} after {last})"
                    )
                raise ValueError(f"schedule_batch time {when} is not finite")
            last = when
            eid += 1
            append((when, priority, eid, event))
        for entry in entries:
            event = entry[3]
            if event._state == PENDING:
                event._state = TRIGGERED
        self._eid = eid
        self._pending.push_sorted(entries, now)

    def timeout_batch(
        self,
        delays: Sequence[float],
        value: Any = None,
        callback: Optional[Callable[[Event], None]] = None,
    ) -> List[Timeout]:
        """Create N timeouts from ascending delays in one queue pass.

        Equivalent to ``[self.timeout(d, value) for d in delays]`` —
        same objects, same firing order, same insertion ids — but the
        queue insert is a single bulk pass and the per-timeout
        constructor overhead is stripped.  ``delays`` must be sorted
        ascending, non-negative and finite; a bad delay raises
        ``ValueError`` before the queue is touched.

        ``callback``, when given, is pre-seeded as each timeout's first
        callback — the same effect as appending it to every returned
        timeout, without a second million-element pass at fleet scale.
        """
        now = self._now
        eid = self._eid
        timeouts: List[Timeout] = []
        entries: List[Tuple[float, int, int, Event]] = []
        t_append = timeouts.append
        e_append = entries.append
        t_new = Timeout.__new__
        prev = 0.0
        for delay in delays:
            if not prev <= delay < INF:
                if 0 <= delay < prev:
                    raise ValueError(
                        f"timeout_batch delays must be ascending "
                        f"(got {delay} after {prev})"
                    )
                raise ValueError(_bad_delay(delay))
            prev = delay
            timeout = t_new(Timeout)
            timeout.env = self
            timeout.callbacks = [] if callback is None else [callback]
            timeout._value = value
            timeout._ok = True
            timeout._state = TRIGGERED
            timeout._defused = False
            timeout.delay = delay
            eid += 1
            e_append((now + delay, NORMAL, eid, timeout))
            t_append(timeout)
        self._eid = eid
        self._pending.push_sorted(entries, now)
        return timeouts

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        head = self._pending.head()
        return head[0] if head is not None else INF

    # -- running ------------------------------------------------------
    def step(self) -> None:
        """Process the single next event."""
        if self._dispatch(None, INF, 1) is _EMPTY:
            raise SimulationError("event queue is empty")

    def run(self, until: Any = None, limit: Optional[int] = None) -> Any:
        """Run until ``until`` (a time, an event, or queue exhaustion).

        * ``until`` is ``None``: run until no events remain.
        * ``until`` is a number: run until the clock reaches it.
        * ``until`` is an :class:`Event`: run until it is processed and
          return its value (raising its exception if it failed).

        ``limit`` bounds the number of events processed by this call —
        a guard against accidentally unbounded simulations (e.g. a
        monitor process that never stops).  Reaching it raises
        :class:`SimulationError` only while work for this call remains.
        """
        budget = _UNBOUNDED if limit is None else limit
        if until is None:
            if self._dispatch(None, INF, budget) is _BUDGET and len(
                self._pending
            ):
                raise self._limit_reached(limit)
            return None

        if isinstance(until, Event):
            if until._state != PROCESSED:
                why = self._dispatch(until, INF, budget)
                if until._state != PROCESSED:
                    if why is _EMPTY or not len(self._pending):
                        raise SimulationError(
                            "event queue empty before target event triggered"
                        )
                    raise self._limit_reached(limit)
            if not until._ok:
                until._defused = True
                raise until._value
            return until._value

        deadline = float(until)
        if deadline < self._now:
            raise ValueError(f"until={deadline} is in the past (now={self._now})")
        if self._dispatch(None, deadline, budget) is _BUDGET and (
            self.peek() <= deadline
        ):
            raise self._limit_reached(limit)
        self._now = deadline
        return None

    def _limit_reached(self, limit: Optional[int]) -> SimulationError:
        return SimulationError(f"event limit of {limit} reached at t={self._now}")

    def _dispatch(
        self, stop: Optional[Event], deadline: float, budget: int
    ) -> str:
        """The engine loop behind :meth:`step` and every :meth:`run` mode.

        Pops and processes events in ``(time, priority, eid)`` order
        until one of four things happens, and says which:

        * ``_STOPPED``: ``stop`` was just processed;
        * ``_EMPTY``: the queue ran dry (``pop`` raised ``IndexError``);
        * ``_DEADLINE``: the next event lies after ``deadline``; it is
          pushed back unchanged (same entry, same eid), so pop order is
          untouched and the clock stays where it was;
        * ``_BUDGET``: ``budget`` events were processed.

        The processed count lives in a local and is added to
        ``events_processed`` on the way out, also when a callback or an
        unhandled failure raises.
        """
        queue = self._pending
        pop = queue.pop
        done = PROCESSED
        processed = 0
        try:
            for processed in range(1, budget + 1):
                try:
                    when, priority, eid, event = pop()
                except IndexError:
                    processed -= 1
                    return _EMPTY
                if when > deadline:
                    queue.push((when, priority, eid, event), self._now)
                    processed -= 1
                    return _DEADLINE
                self._now = when
                callbacks = event.callbacks
                event.callbacks = []
                event._state = done
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
                if event is stop:
                    return _STOPPED
            return _BUDGET
        finally:
            self._events_processed += processed


#: Why :meth:`Environment._dispatch` returned.
_STOPPED = "stopped"
_EMPTY = "empty"
_DEADLINE = "deadline"
_BUDGET = "budget"

#: The event budget of an unlimited run: more events than any run has.
_UNBOUNDED = sys.maxsize - 1
