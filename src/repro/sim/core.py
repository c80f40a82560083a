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

Pending events live in one binary heap, a plain list driven by
:mod:`heapq`, of ``(time, priority, insertion id, event)`` entries
popped in that order.  Bulk producers (trace replay, batched arrival
injection) use :meth:`Environment.timeout_batch`, whose sorted batch
holds one heap slot at a time, not one per timeout.  A timeout nothing
waits on any more can be withdrawn (:meth:`Timeout.cancel`): its entry
is dropped unprocessed when popped, and once withdrawn entries
outnumber live ones the heap is filtered in place (asyncio's rule for
cancelled timer handles).

``step()`` and every ``run()`` mode share one dispatch loop
(:meth:`Environment._dispatch`), and the hot event constructors
(``Timeout``, ``Initialize``, process completion, ``Request``,
``Event.succeed``) build their queue entry inline: one ``heappush`` per
scheduled event, and no call per processed event beyond ``heappop`` and
the event's callbacks.

Three primitives spare the request path events that simulate nothing.
:meth:`Environment.start` runs a process's first step inside the
caller's step instead of queueing an ``Initialize`` event for it
(:meth:`Environment.process` still queues it).
:meth:`Environment.timeout_at` fires at an absolute time, so a process
can end two back-to-back stages with one timeout at exactly the instant
two would have reached.  :meth:`Environment.race` waits on an event
with a watchdog timeout that wakes the process itself, with no
``AnyOf`` event between them; the loser is detached and the watchdog
withdrawn.
"""

from __future__ import annotations

import sys
from heapq import heapify, heappop, heappush
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


def _bad_time(when: float, now: float) -> str:
    """Why ``when`` failed the ``now <= when < inf`` check."""
    if when < now:
        return f"time {when} is in the past (now={now})"
    return f"non-finite time {when}"


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
#: A queued timeout taken back by :meth:`Timeout.cancel`: it never fires.
WITHDRAWN = "withdrawn"


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
        now = env.now
        eid = env._eid = env._eid + 1
        heappush(env._pending, (now, NORMAL, eid, self))
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
        now = env.now
        eid = env._eid = env._eid + 1
        heappush(env._pending, (now + delay, NORMAL, eid, self))

    def cancel(self) -> bool:
        """Withdraw the timeout from the queue; it will never fire.

        For a timeout that lost a race and that nothing waits on any
        more: its queue entry is dropped when popped (no clock advance,
        no event counted, no ``limit`` spent) and ``peek``/``run`` treat
        it as gone.  Returns ``False`` if it already fired or was
        already withdrawn.  Raises :class:`SimulationError` while a
        callback is attached (a waiting process, a condition, a batch's
        merge step): withdrawing it would leave that waiter hanging.
        Waiting on a withdrawn timeout raises ``SimulationError`` too.
        """
        if self._state != TRIGGERED:
            return False
        if self.callbacks:
            raise SimulationError(f"cannot cancel {self!r}: a waiter is attached")
        self._state = WITHDRAWN
        self.env._withdraw()
        return True


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
        now = env.now
        eid = env._eid = env._eid + 1
        heappush(env._pending, (now, URGENT, eid, self))


class Process(Event):
    """A running generator; also an event that triggers on its return.

    The generator yields :class:`Event` objects to wait on them.  When a
    yielded event triggers, the generator is resumed with the event's
    value (or the event's exception is thrown into it).  The value of
    the generator's ``return`` statement becomes the process's value.
    """

    __slots__ = ("_generator", "_target", "_resume")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        self._setup(env, generator)
        Initialize(env, self)

    def _setup(self, env: "Environment", generator: Generator) -> None:
        """Set the process up, not yet started."""
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
                if not next_event._ok:
                    next_event._defused = True
                self._resume_now(next_event._ok, next_event._value)
            elif next_event._state is WITHDRAWN:
                # It will never fire: fail the wait instead of hanging.
                self._resume_now(False, _withdrawn_error(next_event))
            else:
                self._target = next_event
                next_event.callbacks.append(self._resume)
            return
        # The generator exited: trigger the process itself.
        env._active_process = None
        self._resume = None
        self._state = TRIGGERED
        now = env.now
        eid = env._eid = env._eid + 1
        heappush(env._pending, (now, NORMAL, eid, self))

    def _resume_now(self, ok: bool, value: Any) -> None:
        """Resume with this outcome on the next loop iteration."""
        immediate = Event(self.env)
        immediate._ok = ok
        immediate._value = value
        immediate._defused = not ok
        immediate.callbacks.append(self._resume)
        self.env._schedule(immediate, priority=URGENT)


#: What :meth:`Environment.start` wakes a new process with: an event
#: already processed with value ``None`` (``_wake`` reads only its
#: outcome), in place of a queued ``Initialize``.
_STARTED = Event.__new__(Event)
_STARTED.env = None
_STARTED.callbacks = []
_STARTED._value = None
_STARTED._ok = True
_STARTED._state = PROCESSED
_STARTED._defused = False


class Condition(Event):
    """Base for :class:`AllOf` / :class:`AnyOf` composite events.

    A component event counts once it is *processed* (its callbacks have
    run), not merely scheduled — a freshly created Timeout is scheduled
    immediately but must not satisfy a condition until it fires.

    Every component reports to ``_check`` exactly once: a pending one
    when it is processed, an already-processed one during construction.
    Once the condition fires it releases the components still pending
    (:meth:`_release`), so a component that outlives it — a client
    deadline that lost the race — does not keep it alive.
    """

    __slots__ = ("_events", "_outstanding")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = events = list(events)
        self._outstanding = len(events)
        for event in events:
            if event.env is not env:
                raise SimulationError("events belong to different environments")
            if event._state is WITHDRAWN:
                raise _withdrawn_error(event)
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

    def _release(self) -> None:
        """Detach ``_check`` from every component not yet processed.

        Called once, when the condition fires.  All a fired ``_check``
        would still do is defuse a component that fails later, so the
        component is defused now and the check dropped: the pending
        component no longer references the condition, and through it
        every other component.  A nested condition is released, not
        emptied: another process may still be waiting on it.
        """
        check = self._check
        for event in self._events:
            if event._state != PROCESSED:
                event._defused = True
                callbacks = event.callbacks
                while check in callbacks:
                    callbacks.remove(check)

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
        else:
            self._outstanding -= 1
            if self._outstanding:
                return
            self.succeed(self._collect())
        self._release()


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
        else:
            self.succeed(self._collect())
        self._release()


class Environment:
    """The simulation clock and event queue."""

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current simulated time in milliseconds.  A plain attribute,
        #: read on every step of every process; only the engine writes
        #: it (``_dispatch`` and ``run(until=t)``).
        self.now = float(initial_time)
        #: The tracer attached to this environment (:mod:`repro.trace`
        #: sets and clears it); ``None`` when none is.
        self.tracer = None
        self._pending: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        self._events_processed = 0
        #: Withdrawn timeouts not yet dropped from ``_pending`` (a
        #: batch's withdrawn tail counts before its predecessor queues it).
        self._withdrawn = 0

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

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """A timeout that fires at exactly ``when`` (absolute ms).

        ``timeout(when - now)`` fires at ``now + (when - now)``, which
        need not equal ``when`` in floating point; this queues ``when``
        itself.  ``when`` must be finite and not before ``now``: a bad
        time raises ``ValueError`` before anything is queued.
        """
        now = self.now
        if not now <= when < INF:
            raise ValueError(_bad_time(when, now))
        timeout = Timeout.__new__(Timeout)
        timeout.env = self
        timeout.callbacks = []
        timeout._value = value
        timeout._ok = True
        timeout._state = TRIGGERED
        timeout._defused = False
        timeout.delay = when - now
        eid = self._eid = self._eid + 1
        heappush(self._pending, (when, NORMAL, eid, timeout))
        return timeout

    def process(self, generator: Generator) -> Process:
        """A process whose first step is queued (an ``Initialize``
        event at the current instant, ahead of normal events)."""
        return Process(self, generator)

    def start(self, generator: Generator) -> Process:
        """A process whose first step runs now, before this returns.

        The step runs inside the caller's step instead of behind a
        queued ``Initialize``, so starting costs no engine event.
        ``active_process`` is the new process during that step and the
        caller's again afterwards.  An exception the step raises fails
        the process, not the caller, as in a queued first step; a
        generator that returns without yielding triggers the process
        (its completion is queued as usual).
        """
        process = Process.__new__(Process)
        process._setup(self, generator)
        caller = self._active_process
        try:
            process._wake(_STARTED)
        finally:
            self._active_process = caller
        return process

    def race(self, event: Event, delay: float) -> Generator:
        """Wait on ``event`` with a ``delay`` ms watchdog.

        Used as ``yield from env.race(event, delay)`` inside a process:
        the process yields ``event``, and a watchdog timeout armed with
        the process's own resume callback wakes it instead if it is
        processed first.  Returns ``event``'s value, or ``None`` when
        the watchdog won; ``event.processed`` tells the two apart.
        The loser is let go: a late ``event`` no longer resumes the
        process and is defused (a later failure of it is not raised),
        and a watchdog that has not fired is detached and withdrawn,
        also when the process is interrupted while it waits or its
        generator is closed.  Of two due at one instant the one
        processed first wins, the one ``AnyOf([event, watchdog])`` would
        report, but no ``AnyOf`` event is scheduled.
        """
        process = self._active_process
        if process is None:
            raise SimulationError("race() must run inside a process")
        resume = process._resume
        watchdog = Timeout(self, delay)
        watchdog.callbacks.append(resume)
        try:
            return (yield event)
        finally:
            if watchdog._state is TRIGGERED:
                # Still queued: the event won, or the wait was cut short.
                watchdog.callbacks.remove(resume)
                watchdog.cancel()
            elif event._state != PROCESSED:
                # The watchdog won: nobody is left to handle a later
                # failure of the event (``AnyOf`` defuses its losers too).
                event._defused = True

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
        now = self.now
        eid = self._eid = self._eid + 1
        heappush(self._pending, (now, priority, eid, event))

    def _withdraw(self) -> None:
        """Count one withdrawn timeout; compact once they outnumber live
        entries.  The filter runs in place: ``_dispatch`` and every
        batch merge step hold the list itself."""
        self._withdrawn += 1
        pending = self._pending
        if 2 * self._withdrawn > len(pending):
            live = [entry for entry in pending if entry[3]._state is not WITHDRAWN]
            self._withdrawn -= len(pending) - len(live)
            pending[:] = live
            heapify(pending)

    def timeout_batch(
        self,
        delays: Sequence[float],
        value: Any = None,
        callback: Optional[Callable[[Event], None]] = None,
    ) -> List[Timeout]:
        """Create N timeouts from ascending delays.

        Equivalent to ``[self.timeout(d, value) for d in delays]`` —
        same objects, same firing order, same insertion ids — without
        the per-timeout constructor overhead.  ``delays`` must be sorted
        ascending, non-negative and finite; a bad delay raises
        ``ValueError`` before anything is queued.

        The batch holds one heap slot, not N: only its first timeout is
        queued, and each timeout, when processed, first queues its
        successor — a lazy k-way merge, as in :func:`heapq.merge`.  The
        successor is never earlier than the timeout just popped and is
        queued before the next pop, so the pop order is the one N
        queued timeouts would give.

        ``callback``, when given, is pre-seeded on each timeout: it runs
        after that merge step and before any callback added later — the
        same effect as appending it to every returned timeout, without
        a second pass over a million-element batch.
        """
        now = self.now
        eid = self._eid
        timeouts: List[Timeout] = []
        entries: List[Tuple[float, int, int, Event]] = []
        pending = self._pending
        # Walks ``entries`` as the loop below fills it: the first call
        # queues the batch's head, each merge step the next timeout.
        queue_next = iter(entries).__next__

        def merge(event: Event) -> None:
            heappush(pending, queue_next())

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
            timeout.callbacks = (
                [merge] if callback is None else [merge, callback]
            )
            timeout._value = value
            timeout._ok = True
            timeout._state = TRIGGERED
            timeout._defused = False
            timeout.delay = delay
            eid += 1
            e_append((now + delay, NORMAL, eid, timeout))
            t_append(timeout)
        if timeouts:
            # The last timeout has no successor to queue.
            del timeouts[-1].callbacks[0]
            self._eid = eid
            heappush(pending, queue_next())
        return timeouts

    def peek(self) -> float:
        """Time of the next live event, or ``inf`` if none.

        Withdrawn entries at the head of the queue are dropped on the way.
        """
        pending = self._pending
        while pending:
            when, _, _, event = pending[0]
            if event._state is not WITHDRAWN:
                return when
            heappop(pending)
            self._withdrawn -= 1
        return INF

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
            if self._dispatch(None, INF, budget) is _BUDGET and (
                self.peek() != INF
            ):
                raise self._limit_reached(limit)
            return None

        if isinstance(until, Event):
            if until._state != PROCESSED:
                why = self._dispatch(until, INF, budget)
                if until._state != PROCESSED:
                    if why is _EMPTY or self.peek() == INF:
                        raise SimulationError(
                            "event queue empty before target event triggered"
                        )
                    raise self._limit_reached(limit)
            if not until._ok:
                until._defused = True
                raise until._value
            return until._value

        deadline = float(until)
        if deadline < self.now:
            raise ValueError(f"until={deadline} is in the past (now={self.now})")
        if self._dispatch(None, deadline, budget) is _BUDGET and (
            self.peek() <= deadline
        ):
            raise self._limit_reached(limit)
        self.now = deadline
        return None

    def _limit_reached(self, limit: Optional[int]) -> SimulationError:
        return SimulationError(f"event limit of {limit} reached at t={self.now}")

    def _dispatch(
        self, stop: Optional[Event], deadline: float, budget: int
    ) -> str:
        """The engine loop behind :meth:`step` and every :meth:`run` mode.

        Pops and processes events in ``(time, priority, eid)`` order
        until one of four things happens, and says which:

        * ``_STOPPED``: ``stop`` was just processed;
        * ``_EMPTY``: the queue ran dry (``heappop`` raised ``IndexError``);
        * ``_DEADLINE``: the next event lies after ``deadline``; it is
          pushed back unchanged (same entry, same eid), so pop order is
          untouched and the clock stays where it was;
        * ``_BUDGET``: ``budget`` events were processed.

        Withdrawn entries are dropped as they are popped, before any of
        these tests: they spend no budget and never move the clock.  The
        processed count lives in a local and is added to
        ``events_processed`` on the way out, also when a callback or an
        unhandled failure raises.
        """
        queue = self._pending
        pop = heappop
        done = PROCESSED
        withdrawn = WITHDRAWN
        processed = 0
        try:
            for processed in range(1, budget + 1):
                try:
                    when, priority, eid, event = pop(queue)
                    while event._state is withdrawn:
                        self._withdrawn -= 1
                        when, priority, eid, event = pop(queue)
                except IndexError:
                    processed -= 1
                    return _EMPTY
                if when > deadline:
                    heappush(queue, (when, priority, eid, event))
                    processed -= 1
                    return _DEADLINE
                self.now = when
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


def _withdrawn_error(timeout: Timeout) -> SimulationError:
    return SimulationError(f"cannot wait on {timeout!r}: it was withdrawn")
