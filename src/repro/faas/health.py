"""Per-node health tracking: circuit breakers, draining, and routing.

Production FaaS control planes do not keep hammering a node that just
failed five requests in a row — they trip a breaker, route around it,
and probe it again after a cooldown.  This module is that machinery for
the reproduction's cluster:

* :class:`CircuitBreaker` — the classic three-state machine on the sim
  clock.  **Closed** passes traffic and counts consecutive failures;
  ``failure_threshold`` of them **opens** it.  Open rejects instantly
  (no queueing onto a dead node) until ``cooldown_ms`` elapses, then
  **half-open** admits up to ``half_open_probes`` trial requests: one
  success closes the breaker, one failure re-opens it and restarts the
  cooldown.
* :class:`NodeHealth` — a node plus its breaker plus an operator-driven
  ``draining`` flag (planned maintenance: stop routing, let in-flight
  work finish).
* :class:`NodeRouter` — walks the admittable nodes in the order a
  pluggable :class:`~repro.faas.routing.RoutingPolicy` ranks them
  (round-robin by default, exactly the historical rotation); raises
  :class:`~repro.errors.CircuitOpenError` when every node is open or
  draining, which the controller converts into backoff-and-retry.

None of this schedules events or advances the clock; with healthy nodes
it is pure bookkeeping, so wiring it in adds zero simulated latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional, Tuple

from repro.errors import CircuitOpenError, ConfigError
from repro.faas.routing import (
    ROUND_ROBIN,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    RoutingPolicy,
    RoutingStats,
)
from repro.sim import Environment


class BreakerState(Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Knobs of one node's circuit breaker."""

    #: Consecutive failures that trip the breaker.
    failure_threshold: int = 3
    #: How long an open breaker rejects before probing again.
    cooldown_ms: float = 250.0
    #: Concurrent trial requests admitted while half-open.
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigError("failure_threshold must be >= 1")
        if self.cooldown_ms < 0:
            raise ConfigError("cooldown_ms must be >= 0")
        if self.half_open_probes < 1:
            raise ConfigError("half_open_probes must be >= 1")


DEFAULT_BREAKER = BreakerPolicy()


@dataclass
class BreakerStats:
    opens: int = 0
    closes: int = 0
    rejected: int = 0
    #: ``(sim_time_ms, new_state)`` history of every transition.
    transitions: List[Tuple[float, BreakerState]] = field(default_factory=list)


class CircuitBreaker:
    """Closed → open → half-open failure isolation on the sim clock."""

    def __init__(
        self, env: Environment, policy: BreakerPolicy = DEFAULT_BREAKER
    ) -> None:
        self.env = env
        self.policy = policy
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self.stats = BreakerStats()

    # -- state -----------------------------------------------------------
    @property
    def state(self) -> BreakerState:
        self._maybe_half_open()
        return self._state

    @property
    def consecutive_failures(self) -> int:
        return self._consecutive_failures

    def _transition(self, state: BreakerState) -> None:
        self._state = state
        self.stats.transitions.append((self.env.now, state))

    def _maybe_half_open(self) -> None:
        if (
            self._state is BreakerState.OPEN
            and self.env.now - self._opened_at >= self.policy.cooldown_ms
        ):
            self._transition(BreakerState.HALF_OPEN)
            self._probes_in_flight = 0

    def _open(self) -> None:
        self._opened_at = self.env.now
        self._probes_in_flight = 0
        self.stats.opens += 1
        self._transition(BreakerState.OPEN)

    # -- admission -------------------------------------------------------
    def allow(self) -> bool:
        """May one request be sent to this node right now?

        Half-open admission is consuming: each ``True`` claims one of
        the probe slots until its outcome is recorded.
        """
        self._maybe_half_open()
        # ``NodeRouter.select`` carries a copy of this closed test for
        # its round-robin path: edit the two together.
        if self._state is BreakerState.CLOSED:
            return True
        if (
            self._state is BreakerState.HALF_OPEN
            and self._probes_in_flight < self.policy.half_open_probes
        ):
            self._probes_in_flight += 1
            return True
        self.stats.rejected += 1
        return False

    # -- outcomes --------------------------------------------------------
    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self._state is not BreakerState.CLOSED:
            self._maybe_half_open()
            self.stats.closes += 1
            self._transition(BreakerState.CLOSED)
        self._probes_in_flight = 0

    def record_failure(self) -> None:
        self._maybe_half_open()
        self._consecutive_failures += 1
        if self._state is BreakerState.HALF_OPEN:
            self._open()  # failed probe: back to open, cooldown restarts
        elif (
            self._state is BreakerState.CLOSED
            and self._consecutive_failures >= self.policy.failure_threshold
        ):
            self._open()

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state.value}, "
            f"failures={self._consecutive_failures})"
        )


class NodeHealth:
    """One compute node's routable status: breaker + drain flag."""

    def __init__(self, node, breaker: CircuitBreaker) -> None:
        self.node = node
        self.breaker = breaker
        self.draining = False

    # -- drain / recover -------------------------------------------------
    def drain(self) -> None:
        """Stop routing new work here (in-flight requests finish)."""
        self.draining = True

    def recover(self) -> None:
        """Return a drained node to the rotation."""
        self.draining = False

    # -- routing ---------------------------------------------------------
    def admit(self) -> bool:
        # ``NodeRouter.select``'s round-robin path carries a copy of
        # this test for a closed breaker: edit the two together.
        return not self.draining and self.breaker.allow()

    def record_failure(self) -> None:
        self.breaker.record_failure()

    def __repr__(self) -> str:
        flag = " draining" if self.draining else ""
        return f"NodeHealth({self.node!r}, {self.breaker.state.value}{flag})"


class NodeRouter:
    """Policy-ranked selection over the nodes whose breakers admit.

    The :class:`~repro.faas.routing.RoutingPolicy` orders the
    candidates (fed to it in rotation order, so ties preserve the
    round-robin balance); ``admit()`` stays the single
    probe-slot-consuming gate, called in that order.  The default
    round-robin policy takes a fast path that is byte-identical to the
    historical rotation, and :meth:`prefer_least_loaded` installs the
    historical backpressure mode (now a
    :class:`~repro.faas.routing.LeastLoadedPolicy`).
    """

    def __init__(
        self,
        healths: Optional[List[NodeHealth]] = None,
        policy: Optional[RoutingPolicy] = None,
        env: Optional[Environment] = None,
    ) -> None:
        self._healths: List[NodeHealth] = list(healths or [])
        self._next = 0
        self.policy: RoutingPolicy = policy or ROUND_ROBIN
        #: Optional environment handle, only used to emit locality
        #: tracer counters from affinity policies.
        self.env = env
        self.stats = RoutingStats()

    def add(self, health: NodeHealth) -> None:
        self._healths.append(health)

    def prefer_least_loaded(
        self, load_of: Callable[[NodeHealth], float]
    ) -> None:
        """Install a backpressure signal (e.g. admission-queue depth)."""
        self.policy = LeastLoadedPolicy(load_of)

    @property
    def healths(self) -> List[NodeHealth]:
        return list(self._healths)

    def __len__(self) -> int:
        return len(self._healths)

    def select(self, fn=None) -> NodeHealth:
        """The next admittable node under the routing policy.

        ``fn`` (a :class:`~repro.faas.records.FunctionSpec`) lets
        locality-aware policies see what is being routed; ``None``
        keeps policies that ignore it fully functional.  Raises
        :class:`CircuitOpenError` when no node can take the request —
        the controller's cue to back off and retry rather than queue
        onto a known-dead node.
        """
        if not self._healths:
            raise ConfigError("router has no nodes")
        count = len(self._healths)
        policy = self.policy
        self.stats.decisions += 1
        if type(policy) is RoundRobinPolicy:
            # Fast path: the historical rotation, no list materialized.
            for offset in range(count):
                health = self._healths[(self._next + offset) % count]
                if (
                    # A closed breaker on a node that is not draining
                    # admits without side effects: skip the call chain
                    # (a copy of ``admit``'s and ``allow``'s test).
                    not health.draining
                    and health.breaker._state is BreakerState.CLOSED
                ) or health.admit():
                    self._next = (self._next + offset + 1) % count
                    return health
        else:
            rotation = [
                self._healths[(self._next + offset) % count]
                for offset in range(count)
            ]
            offset_of = {id(health): o for o, health in enumerate(rotation)}
            for health in policy.rank(rotation, fn):
                if health.admit():
                    self._next = (
                        self._next + offset_of[id(health)] + 1
                    ) % count
                    policy.note_selected(health, fn, self.stats, env=self.env)
                    return health
        raise CircuitOpenError(
            f"all {count} node(s) unavailable (circuit open or draining)"
        )
