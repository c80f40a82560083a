"""Sim-clock-native span recording.

A :class:`Tracer` records nested :class:`Span`\\ s, instant events and
counter samples stamped with **simulated** milliseconds.  It is a pure
observer: recording never schedules events, draws random numbers or
advances the clock, so a traced run replays the exact event schedule of
an untraced one (the zero-perturbation guarantee the regression tests
lock down).

Attachment model
----------------

Instrumentation sites resolve their tracer through :func:`tracer_for`,
passing the environment of the node they belong to:

* :meth:`Tracer.attach` binds a tracer to one
  :class:`~repro.sim.Environment` (``env.tracer``), so it records that
  environment's nodes, their caches and memory included, and no other;
* :func:`enable` installs a tracer process-globally (the CLI's
  ``--trace`` flag), capturing every environment;
* with neither, the site gets the :data:`NULL_TRACER`, whose
  ``enabled`` is ``False``.  Sites test ``enabled`` (the controller and
  the invocation ledger once per request, the caches once per record)
  and build no span or record when it is off.

An object built without an environment (a bare allocator or cache, the
keep-alive lab's policies) passes ``None`` and records into
:func:`current`, the most recently attached or enabled tracer.

Spans carry explicit parents rather than an ambient stack: simulation
processes interleave at yield points, so "the enclosing span" is a
per-invocation notion, not a per-thread one.  A root span (``parent is
None``) opens a fresh *track* (one Perfetto thread lane); children
inherit their parent's track.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "CounterSample",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceEvent",
    "Tracer",
    "current",
    "disable",
    "enable",
    "tracer_for",
]


class Span:
    """One named interval on the simulated clock.

    Usable as a context manager (``with tracer.span(...)``) or finished
    explicitly with :meth:`finish`; instrumentation inside simulation
    generators passes explicit ``at=`` stamps so span edges are exact
    even when the tracer is not bound to the span's environment.
    """

    __slots__ = (
        "_tracer",
        "span_id",
        "parent_id",
        "track",
        "name",
        "category",
        "start_ms",
        "end_ms",
        "attrs",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: Optional[int],
        track: int,
        name: str,
        category: str,
        start_ms: float,
        attrs: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.track = track
        self.name = name
        self.category = category
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self.attrs = attrs

    # -- introspection ---------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.end_ms is not None

    @property
    def duration_ms(self) -> float:
        """Span length; 0.0 while still open."""
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    # -- recording -------------------------------------------------------
    def finish(self, at: Optional[float] = None) -> "Span":
        """Close the span (idempotent) at ``at`` or the tracer's clock."""
        if self.end_ms is None:
            self.end_ms = self._tracer._stamp(at)
        return self

    def span(
        self,
        name: str,
        at: Optional[float] = None,
        category: Optional[str] = None,
        **attrs: Any,
    ) -> "Span":
        """Open a child span on this span's track."""
        return self._tracer.span(
            name, at=at, parent=self, category=category or "span", **attrs
        )

    def done(
        self, name: str, start_ms: float, end_ms: float, **attrs: Any
    ) -> "Span":
        """Record an already-closed child span with explicit edges."""
        return self._tracer.record_span(name, self, start_ms, end_ms, **attrs)

    def event(self, name: str, at: Optional[float] = None, **attrs: Any) -> None:
        """Record an instant event on this span's track."""
        self._tracer.event(name, at=at, track=self.track, **attrs)

    def annotate(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.finish()

    def __repr__(self) -> str:
        end = f"{self.end_ms:.3f}" if self.end_ms is not None else "open"
        return (
            f"Span({self.name!r}, {self.start_ms:.3f}..{end}, "
            f"track={self.track}, id={self.span_id})"
        )


@dataclass(frozen=True)
class TraceEvent:
    """An instant event (Perfetto 'i' phase)."""

    name: str
    ts_ms: float
    track: int
    attrs: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CounterSample:
    """One sample of a cumulative counter (Perfetto 'C' phase)."""

    name: str
    ts_ms: float
    value: float


#: Track 0 is reserved for global events and counters.
GLOBAL_TRACK = 0


class Tracer:
    """Records spans, events and counters; never touches the schedule."""

    #: NullTracer overrides this; hot paths may branch on it.
    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.events: List[TraceEvent] = []
        self.counters: List[CounterSample] = []
        self._counter_totals: Dict[str, float] = {}
        self._next_span = itertools.count(1)
        self._next_track = itertools.count(GLOBAL_TRACK + 1)
        #: The environments this tracer is attached to, in attach order
        #: (one entry per :meth:`attach` not yet undone).
        self._envs: List[Any] = []
        #: High-water timestamp; the clock of last resort for env-less
        #: recording sites (keeps exported traces monotonic).
        self._last_ts = 0.0

    # -- attachment ------------------------------------------------------
    def attach(self, env) -> "Tracer":
        """Bind to ``env`` (``env.tracer``) and become the active tracer."""
        self._envs.append(env)
        env.tracer = self
        _ACTIVE.append(self)
        return self

    def detach(self, env) -> None:
        """Undo :meth:`attach`; recorded data stays on the tracer.

        ``env`` falls back to the most recently attached tracer still
        attached to it (``None`` when there is none).
        """
        _drop_last(self._envs, env)
        _drop_last(_ACTIVE, self)
        if env.tracer is self:
            env.tracer = next(
                (
                    tracer
                    for tracer in reversed(_ACTIVE)
                    if any(attached is env for attached in tracer._envs)
                ),
                None,
            )

    # -- clock -----------------------------------------------------------
    def now(self) -> float:
        """The clock of the environment this tracer was last attached
        to and still is, else the high-water stamp."""
        if self._envs:
            return self._envs[-1].now
        return self._last_ts

    def _stamp(self, at: Optional[float]) -> float:
        ts = self.now() if at is None else float(at)
        if ts > self._last_ts:
            self._last_ts = ts
        return ts

    # -- recording -------------------------------------------------------
    def span(
        self,
        name: str,
        at: Optional[float] = None,
        parent: Optional[Span] = None,
        category: str = "span",
        **attrs: Any,
    ) -> Span:
        """Open a span; a ``parent`` of ``None`` starts a new track."""
        if parent is None:
            track = next(self._next_track)
            parent_id = None
        else:
            track = parent.track
            parent_id = parent.span_id
        span = Span(
            tracer=self,
            span_id=next(self._next_span),
            parent_id=parent_id,
            track=track,
            name=name,
            category=category,
            start_ms=self._stamp(at),
            attrs=dict(attrs),
        )
        self.spans.append(span)
        return span

    def record_span(
        self,
        name: str,
        parent: Optional[Span],
        start_ms: float,
        end_ms: float,
        category: str = "stage",
        **attrs: Any,
    ) -> Span:
        """Record a span whose edges are already known (closed)."""
        span = self.span(
            name, at=start_ms, parent=parent, category=category, **attrs
        )
        span.finish(at=end_ms)
        return span

    def event(
        self,
        name: str,
        at: Optional[float] = None,
        track: int = GLOBAL_TRACK,
        **attrs: Any,
    ) -> None:
        self.events.append(
            TraceEvent(name=name, ts_ms=self._stamp(at), track=track, attrs=attrs)
        )

    def counter(
        self, name: str, delta: float = 1.0, at: Optional[float] = None
    ) -> float:
        """Bump a cumulative counter and record the new total."""
        total = self._counter_totals.get(name, 0.0) + delta
        self._counter_totals[name] = total
        self.counters.append(
            CounterSample(name=name, ts_ms=self._stamp(at), value=total)
        )
        return total

    def gauge(
        self, name: str, value: float, at: Optional[float] = None
    ) -> None:
        """Record an absolute counter sample (occupancy, sizes)."""
        self.counters.append(
            CounterSample(name=name, ts_ms=self._stamp(at), value=float(value))
        )

    # -- queries ---------------------------------------------------------
    def counter_total(self, name: str) -> float:
        return self._counter_totals.get(name, 0.0)

    def finished_spans(self) -> List[Span]:
        return [span for span in self.spans if span.finished]

    def roots(self, category: Optional[str] = None) -> List[Span]:
        """Top-level spans, optionally filtered by category."""
        return [
            span
            for span in self.spans
            if span.parent_id is None
            and (category is None or span.category == category)
        ]

    def children(self, parent: Span) -> List[Span]:
        """Direct children of ``parent``, in recording order."""
        return [
            span for span in self.spans if span.parent_id == parent.span_id
        ]

    def clear(self) -> None:
        self.spans.clear()
        self.events.clear()
        self.counters.clear()
        self._counter_totals.clear()

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(spans={len(self.spans)}, "
            f"events={len(self.events)}, counters={len(self.counters)})"
        )


class _NullSpan(Span):
    """The span all disabled-tracing calls share; every method no-ops."""

    def __init__(self, tracer: "NullTracer") -> None:
        super().__init__(
            tracer=tracer,
            span_id=0,
            parent_id=None,
            track=GLOBAL_TRACK,
            name="null",
            category="null",
            start_ms=0.0,
            attrs={},
        )
        self.end_ms = 0.0

    def finish(self, at: Optional[float] = None) -> "Span":
        return self

    def span(self, name, at=None, category=None, **attrs) -> "Span":
        return self

    def done(self, name, start_ms, end_ms, **attrs) -> "Span":
        return self

    def event(self, name, at=None, **attrs) -> None:
        return None

    def annotate(self, **attrs) -> "Span":
        return self


class NullTracer(Tracer):
    """The default tracer: ``enabled`` is ``False`` and it records nothing.

    Instrumentation tests ``enabled`` before it builds a record, so an
    untraced run calls none of these no-ops on its invocation path."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_span = _NullSpan(self)

    def attach(self, env) -> "Tracer":
        return self

    def detach(self, env) -> None:
        return None

    def span(self, name, at=None, parent=None, category="span", **attrs) -> Span:
        return self._null_span

    def record_span(
        self, name, parent, start_ms, end_ms, category="stage", **attrs
    ) -> Span:
        return self._null_span

    def event(self, name, at=None, track=GLOBAL_TRACK, **attrs) -> None:
        return None

    def counter(self, name, delta=1.0, at=None) -> float:
        return 0.0

    def gauge(self, name, value, at=None) -> None:
        return None


#: The process-wide disabled tracer (shared; never records).
NULL_TRACER = NullTracer()

#: Active-tracer stack: ``attach``/``enable`` push, ``detach``/``disable``
#: pop.  The top is what env-less layers record against.
_ACTIVE: List[Tracer] = []

#: Tracers installed by :func:`enable` (the CLI ``--trace`` hook): the
#: fallback of :func:`tracer_for` for an environment without its own.
_ENABLED: List[Tracer] = []


def _drop_last(stack: List[Any], item: Any) -> None:
    """Remove the most recent registration of ``item``, if any."""
    for index in range(len(stack) - 1, -1, -1):
        if stack[index] is item:
            del stack[index]
            return


def current() -> Tracer:
    """The active tracer, or :data:`NULL_TRACER` when tracing is off."""
    return _ACTIVE[-1] if _ACTIVE else NULL_TRACER


def tracer_for(env) -> Tracer:
    """The tracer an environment's instrumentation should record to.

    Prefers a tracer explicitly attached to ``env``; falls back to the
    process-wide (``--trace``-installed) tracer; else the null tracer.
    A tracer attached to another environment never records this one.
    ``env=None``, for an object built without an environment, resolves
    to :func:`current`.
    """
    if env is None:
        return _ACTIVE[-1] if _ACTIVE else NULL_TRACER
    tracer = env.tracer
    if tracer is not None:
        return tracer
    return _ENABLED[-1] if _ENABLED else NULL_TRACER


def enable(tracer: Tracer) -> Tracer:
    """Install ``tracer`` process-globally (the CLI ``--trace`` hook)."""
    _ACTIVE.append(tracer)
    _ENABLED.append(tracer)
    return tracer


def disable() -> None:
    """Remove the most recently enabled tracer."""
    if _ENABLED:
        _drop_last(_ACTIVE, _ENABLED.pop())
