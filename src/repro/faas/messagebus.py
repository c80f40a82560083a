"""Kafka-like message bus.

OpenWhisk routes every invocation through Kafka between the controller
and the invoker; the SEUSS shim reads the same topics.  The bus here is
a set of named FIFO topics with a small publish latency.  Its hop cost
is part of the calibrated control-plane overhead, so the default
per-publish latency is zero — the class exists so platform components
communicate the way the real ones do, and so tests can inject bus delay
or inspect queue depths.

Fault injection: when a :class:`~repro.faults.FaultInjector` is
installed, each publish may be *dropped* (the message is lost and only
arrives after the producer's retry redelivers it) or *delayed* (late
delivery).  Both are modelled as deferred delivery rather than silent
loss — Kafka's acks/retries mean a produced record is eventually
delivered, so a drop costs latency, never a deadlock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional

from repro.sim import Environment, Event, Store


@dataclass
class TopicStats:
    published: int = 0
    consumed: int = 0
    max_depth: int = 0
    #: Publishes lost and redelivered by the producer retry (faults).
    dropped: int = 0
    #: Publishes that arrived late (faults).
    delayed: int = 0


class MessageBus:
    """Named FIFO topics with optional per-hop latency."""

    def __init__(
        self,
        env: Environment,
        hop_latency_ms: float = 0.0,
        injector=None,
    ) -> None:
        if hop_latency_ms < 0:
            raise ValueError(f"negative hop latency {hop_latency_ms}")
        self.env = env
        self.hop_latency_ms = hop_latency_ms
        #: Optional :class:`repro.faults.FaultInjector` consulted per publish.
        self.injector = injector
        self._topics: Dict[str, Store] = {}
        self.stats: Dict[str, TopicStats] = {}

    def _topic(self, name: str) -> Store:
        store = self._topics.get(name)
        if store is None:
            store = Store(self.env)
            self._topics[name] = store
            self.stats[name] = TopicStats()
        return store

    def depth(self, topic: str) -> int:
        return len(self._topics.get(topic, ()))

    # -- fault plumbing --------------------------------------------------
    def _disrupted(self, topic: str, message: Any) -> bool:
        """Apply an injected drop/delay; True if delivery was deferred."""
        if self.injector is None:
            return False
        verdict = self.injector.bus_verdict()
        if verdict is None:
            return False
        kind, delay_ms = verdict
        store = self._topic(topic)  # materialize stats for the topic
        stats = self.stats[topic]
        stats.published += 1
        if kind == "drop":
            stats.dropped += 1
        else:
            stats.delayed += 1
        self.env.process(self._deliver_later(store, topic, message, delay_ms))
        return True

    def _deliver_later(
        self, store: Store, topic: str, message: Any, delay_ms: float
    ) -> Generator:
        yield self.env.timeout(delay_ms)
        store.put_nowait(message)
        stats = self.stats[topic]
        stats.max_depth = max(stats.max_depth, len(store))

    # -- publish / consume ----------------------------------------------
    def publish(self, topic: str, message: Any) -> Generator:
        """Sim process: publish one message (applies hop latency)."""
        if self.hop_latency_ms:
            yield self.env.timeout(self.hop_latency_ms)
        if self._disrupted(topic, message):
            return
        store = self._topic(topic)
        yield store.put(message)
        stats = self.stats[topic]
        stats.published += 1
        stats.max_depth = max(stats.max_depth, len(store))

    def publish_nowait(self, topic: str, message: Any) -> None:
        """Publish without yielding (unbounded topics never block).

        Hands off through :meth:`Store.put_nowait`, so a publish nothing
        waits on costs no engine event.
        """
        if self.injector is not None and self._disrupted(topic, message):
            return
        # ``Store`` defines ``__len__``: an empty topic is falsy.
        store = self._topics.get(topic)
        if store is None:
            store = self._topic(topic)
        store.put_nowait(message)
        stats = self.stats[topic]
        stats.published += 1
        stats.max_depth = max(stats.max_depth, len(store))

    def consume(self, topic: str) -> Event:
        """Event that triggers with the next message on ``topic``."""
        event = self._topic(topic).get()
        self.stats[topic].consumed += 1
        return event

    def take_nowait(self, topic: str) -> Any:
        """Take the next message on ``topic`` without an engine event.

        Raises ``IndexError`` when the topic holds none (a publish that
        a fault delayed); :meth:`consume` then waits for one.
        """
        store = self._topics.get(topic)
        if store is None:
            store = self._topic(topic)
        message = store.get_nowait()
        self.stats[topic].consumed += 1
        return message
