"""Shared vocabulary: functions, requests, results, and paths.

:class:`InvocationStage` encodes the paper's Figure 1 (stages of a
function invocation) and :class:`InvocationPath` its three deployment
paths (§4): **cold** (no cached snapshot — deploy from the runtime
snapshot, import and compile code, capture a function snapshot), **warm**
(deploy from the function snapshot, skipping import/compile), and **hot**
(reuse an idle, fully-constructed execution environment).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import ConfigError, DeadlineExceededError
from repro.sim import Interrupted
from repro.trace import tracer_for

#: Stage span for time spent queued for a core (never in a breakdown).
STAGE_QUEUE_WAIT = "queue_wait"


class InvocationStage(Enum):
    """Figure 1's stages of a function invocation lifecycle."""

    REQUEST_RECEIVED = "request_received"
    ENVIRONMENT_CREATED = "environment_created"  # container/VM/UC exists
    RUNTIME_INITIALIZED = "runtime_initialized"  # interpreter booted (T1 pool)
    CODE_IMPORTED = "code_imported"  # function source compiled (T2 cache)
    ARGUMENTS_LOADED = "arguments_loaded"
    EXECUTED = "executed"
    RESULT_RETURNED = "result_returned"

    # Members are singletons compared by identity, so the identity hash
    # is consistent with ``==``; ``Enum.__hash__`` would make each stamp
    # in ``stage_times`` one more Python-level call.
    __hash__ = object.__hash__


class InvocationPath(Enum):
    """Which cache level served the invocation (§4, Figure 2)."""

    COLD = "cold"
    WARM = "warm"
    HOT = "hot"
    ERROR = "error"


@dataclass(frozen=True)
class FunctionSpec:
    """A serverless function as the platform sees it.

    A function is "unique" when it needs individual isolation (1:1 with
    a client account), which is what ``owner`` + ``name`` key.  The
    behavioural knobs model the paper's three workload archetypes: the
    NOP JavaScript function (``exec_ms=0.5``), CPU-bound burst functions
    (``exec_ms=150``), and IO-bound background functions that block on
    an external HTTP call (``io_wait_ms=250``).
    """

    name: str
    runtime: str = "nodejs"
    code_kb: float = 0.1
    exec_ms: float = 0.5
    #: Pages the function writes while running (run-time heap).
    exec_write_pages: int = 38
    #: Time blocked on external I/O during execution (core released).
    io_wait_ms: float = 0.0
    owner: str = "default"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("function name must be non-empty")
        if self.exec_ms < 0 or self.io_wait_ms < 0 or self.code_kb < 0:
            raise ConfigError(f"negative cost in function {self.name!r}")
        if self.exec_write_pages < 0:
            raise ConfigError(f"negative exec_write_pages in {self.name!r}")

    @cached_property
    def key(self) -> str:
        """Unique cache key: one isolated cache slot per client function.

        Built at first use and kept, so every cache key, span and result
        of the function shares one string (most specs of a large sweep
        are never invoked, so none is built at construction)."""
        return f"{self.owner}/{self.name}"

    @property
    def duration_ms(self) -> float:
        """Wall-clock run time of the function body."""
        return self.exec_ms + self.io_wait_ms


@dataclass
class PathCounts:
    """Tally of invocations by deployment path (either node type)."""

    cold: int = 0
    warm: int = 0
    hot: int = 0
    errors: int = 0

    def count(self, path: "InvocationPath") -> None:
        if path is InvocationPath.COLD:
            self.cold += 1
        elif path is InvocationPath.WARM:
            self.warm += 1
        elif path is InvocationPath.HOT:
            self.hot += 1
        else:
            self.errors += 1

    @property
    def total(self) -> int:
        return self.cold + self.warm + self.hot + self.errors


@dataclass
class NodeInvocation:
    """Node-side outcome of one invocation (either node type)."""

    path: InvocationPath
    success: bool
    latency_ms: float
    breakdown: Dict[str, float] = field(default_factory=dict)
    pages_copied: int = 0
    #: Pages installed by batched working-set prefetch (never counted
    #: in ``pages_copied``, which stays "demand-fault copies").
    pages_prefetched: int = 0
    error: Optional[str] = None
    function_key: str = ""
    #: Absolute simulated time each Figure-1 stage completed.
    stage_times: Dict[InvocationStage, float] = field(default_factory=dict)
    #: The invocation was cancelled mid-flight (deadline expiry or a
    #: shed policy evicting it from the admission queue); its resources
    #: were released and ``wasted_ms`` of node time produced no answer.
    cancelled: bool = False
    #: Node time burned on work nobody received (cancelled elapsed time,
    #: or the full service time of a zombie that completed past its
    #: deadline).  Always 0.0 with overload control off.
    wasted_ms: float = 0.0
    #: Size of the snapshot replica shipped from a peer for this
    #: deploy (a remote-warm deploy); 0.0 when none was.
    transferred_mb: float = 0.0

    def stages_in_order(self) -> "list[InvocationStage]":
        return sorted(self.stage_times, key=self.stage_times.get)


class InvocationLedger:
    """The books of one node-side invocation, on either node type.

    It records stage charges (a breakdown entry plus a span that tiles
    the ``invocation`` root), Figure 1 stamps and core time, from
    :meth:`core_granted` to :meth:`release_core` (which callers put in
    a ``finally``), and gates stages on the client's deadline.  One of
    :meth:`finish`, :meth:`cancel` or :meth:`fail` ends the invocation:
    it updates the node's counters and returns the
    :class:`NodeInvocation`.  Nothing else writes a node's
    ``useful_ms``, ``wasted_ms``, ``zombie_count`` or
    ``cancelled_count``.

    The tracer is resolved once, at construction, as ``tracer``: with
    tracing off ``root`` is ``None`` and the ledger records no span.
    """

    __slots__ = (
        "node",
        "env",
        "function_key",
        "deadline_ms",
        "cancel_expired",
        "started",
        "breakdown",
        "stage_times",
        "tracer",
        "root",
        "path",
        "pages_copied",
        "pages_prefetched",
        "transferred_mb",
        "busy_ms",
        "_core",
        "_queue_started",
        "_core_acquired_at",
    )

    def __init__(
        self,
        node,
        fn: FunctionSpec,
        deadline_ms: Optional[float] = None,
        cancel_expired: bool = False,
    ) -> None:
        env = node.env
        now = env.now
        self.node = node
        self.env = env
        self.function_key = fn.key
        self.deadline_ms = deadline_ms
        self.cancel_expired = cancel_expired
        self.started = self._queue_started = now
        self.breakdown: Dict[str, float] = {}
        self.stage_times = {InvocationStage.REQUEST_RECEIVED: now}
        self.tracer = tracer = tracer_for(env)
        self.root = (
            tracer.span(
                "invocation",
                at=now,
                category="invocation",
                function=self.function_key,
                runtime=fn.runtime,
            )
            if tracer.enabled
            else None
        )
        self.path = InvocationPath.ERROR  # until the node picks one
        self.pages_copied = 0
        self.pages_prefetched = 0
        #: Size of a peer's replica shipped before the deploy.
        self.transferred_mb = 0.0
        #: Core time held so far (queue and I/O waits hold none).
        self.busy_ms = 0.0
        self._core = None
        self._core_acquired_at: Optional[float] = None

    def charge(self, stage: str, ms: float) -> float:
        """Bill ``ms`` to ``stage``; the caller yields a timeout of the
        returned ``ms`` at once, so the span's edges are known now."""
        # :meth:`_bill`, inline: every stage of every invocation
        # passes here.
        breakdown = self.breakdown
        if stage in breakdown:
            breakdown[stage] += ms
        else:
            breakdown[stage] = float(ms)
        root = self.root
        if root is not None:
            now = self.env.now
            root.done(stage, now, now + ms)
        return ms

    def charge_at(self, stage: str, start: float, ms: float) -> None:
        """Bill ``ms`` to ``stage``, which began at ``start``: a stage
        that shared one timeout with the stage before it."""
        self._bill(stage, ms)
        if self.root is not None:
            self.root.done(stage, start, start + ms)

    def charge_since(self, stage: str, start: float) -> None:
        """Bill the time since ``start``: a stage whose cost is known
        only once it ends (the Linux container creation)."""
        now = self.env.now
        self._bill(stage, now - start)
        if self.root is not None:
            self.root.done(stage, start, now)

    def _bill(self, stage: str, ms: float) -> None:
        # :meth:`charge` carries a copy of this body: edit the two
        # together.  A first charge keeps its float (``float`` returns
        # a float itself, so a hot stage points at the cost model's
        # constant); an int charge still lands as a float.
        breakdown = self.breakdown
        if stage in breakdown:
            breakdown[stage] += ms
        else:
            breakdown[stage] = float(ms)

    def reached(self, stage: InvocationStage, at: Optional[float] = None) -> None:
        """Stamp ``stage`` as completed now, or at ``at``."""
        self.stage_times[stage] = self.env.now if at is None else at

    def deadline_due(self, at: float) -> bool:
        """Whether :meth:`check_deadline` would cancel at time ``at``."""
        return (
            self.cancel_expired
            and self.deadline_ms is not None
            and at >= self.deadline_ms
        )

    def check_deadline(self) -> None:
        """With cancellation on, start no stage for a client that already
        gave up (the controller's watchdog usually cancels first; this
        catches exact-boundary races)."""
        if self.cancel_expired and self.deadline_due(self.env.now):
            raise Interrupted(
                DeadlineExceededError("deadline passed at stage boundary")
            )

    def request_core(self):
        """Claim a core (:meth:`~repro.sim.Resource.claim`): yield the
        claim only while it is queued, then call :meth:`core_granted`.
        A free core is held at once, and the claim comes back processed
        with no event queued."""
        self._core = claim = self.node.cores.claim()
        self._queue_started = self.env.now
        return claim

    def core_granted(self) -> None:
        self._core_acquired_at = now = self.env.now
        if self.root is not None:
            self.root.done(STAGE_QUEUE_WAIT, self._queue_started, now)

    def release_core(self) -> None:
        """Hand back the core (or a still-queued request) and bank the
        time it was held; a no-op when none is held."""
        core = self._core
        if core is not None:
            self.node.cores.release(core)
            self._core = None
        acquired = self._core_acquired_at
        if acquired is not None:
            self.busy_ms += self.env.now - acquired
            self._core_acquired_at = None

    def finish(self) -> NodeInvocation:
        """Completed: count the path, then bank the core time as useful,
        or as waste for a zombie (done after the client's deadline)."""
        node = self.node
        root = self.root
        now = self.env.now
        node.stats.count(self.path)
        if root is not None:
            root.annotate(
                path=self.path.value, success=True, pages_copied=self.pages_copied
            )
            if self.pages_prefetched:
                root.annotate(pages_prefetched=self.pages_prefetched)
        wasted = 0.0
        if self.deadline_ms is not None and now > self.deadline_ms:
            node.zombie_count += 1
            node.wasted_ms += self.busy_ms
            wasted = self.busy_ms
            if root is not None:
                root.annotate(zombie=True, wasted_ms=wasted)
        else:
            node.useful_ms += self.busy_ms
        return self._close(now, wasted_ms=wasted)

    def cancel(self, exc: Interrupted) -> NodeInvocation:
        """Cancelled mid-flight: the core time so far is waste."""
        error = str(exc.cause) if exc.cause is not None else "cancelled"
        self.node.cancelled_count += 1
        self.node.wasted_ms += self.busy_ms
        if self.root is not None:
            self.root.annotate(
                path=self.path.value,
                cancelled=True,
                error=error,
                wasted_ms=self.busy_ms,
            )
        return self._close(
            self.env.now, error=error, cancelled=True, wasted_ms=self.busy_ms
        )

    def fail(self, error: str, stall_ms: float = 0.0) -> NodeInvocation:
        """Failed: count the error now and answer ``ERROR`` ``stall_ms``
        later (the caller yields that long before returning it).  The
        core time held so far produced no answer, so it is waste."""
        self.release_core()
        self.node.wasted_ms += self.busy_ms
        self.node.stats.errors += 1
        self.path = InvocationPath.ERROR
        if self.root is not None:
            self.root.annotate(path=self.path.value, error=error)
        return self._close(self.env.now + stall_ms, error=error)

    def _close(
        self,
        end: float,
        error: Optional[str] = None,
        cancelled: bool = False,
        wasted_ms: float = 0.0,
    ) -> NodeInvocation:
        if self.root is not None:
            self.root.finish(at=end)
        return NodeInvocation(
            path=self.path,
            success=error is None,
            latency_ms=end - self.started,
            breakdown=self.breakdown,
            pages_copied=self.pages_copied,
            pages_prefetched=self.pages_prefetched,
            error=error,
            function_key=self.function_key,
            stage_times=self.stage_times,
            cancelled=cancelled,
            wasted_ms=wasted_ms,
            transferred_mb=self.transferred_mb,
        )


_request_ids = itertools.count(1)


@dataclass
class InvocationRequest:
    """One invocation in flight.

    ``deadline_ms`` is an *absolute* simulated time after which the
    client no longer wants the answer.  ``None`` (the default) keeps
    the historical behaviour: only the platform request timeout
    applies, and nothing downstream ever consults a deadline.
    """

    function: FunctionSpec
    sent_at_ms: float
    request_id: int = field(default_factory=lambda: next(_request_ids))
    deadline_ms: Optional[float] = None

    def remaining_ms(self, now_ms: float) -> Optional[float]:
        """Time left until the deadline, or ``None`` when undeadlined."""
        if self.deadline_ms is None:
            return None
        return self.deadline_ms - now_ms

    def expired(self, now_ms: float) -> bool:
        return self.deadline_ms is not None and now_ms >= self.deadline_ms


#: One stage-name tuple per distinct stage sequence, shared by every
#: result that ran that sequence.
_STAGE_NAMES: Dict[Tuple[str, ...], Tuple[str, ...]] = {}


class InvocationResult:
    """The outcome of one invocation, as the client observes it.

    A client keeps every result of a trial, so a result holds only what
    it must: ``__slots__`` instead of an instance dict, and the
    node-side breakdown as a stage-name tuple shared with every result
    of the same stage sequence plus a tuple of stage times.
    ``breakdown`` rebuilds the node's dict on each read.
    """

    __slots__ = (
        "request_id",
        "function_key",
        "path",
        "success",
        "sent_at_ms",
        "finished_at_ms",
        "node_latency_ms",
        "_stages",
        "_stage_ms",
        "error",
        "pages_copied",
        "attempts",
        "transferred_mb",
    )

    #: The constructor's keywords, in order: what ``==`` and ``repr`` read.
    _FIELDS = (
        "request_id",
        "function_key",
        "path",
        "success",
        "sent_at_ms",
        "finished_at_ms",
        "node_latency_ms",
        "breakdown",
        "error",
        "pages_copied",
        "attempts",
        "transferred_mb",
    )

    def __init__(
        self,
        request_id: int,
        function_key: str,
        path: InvocationPath,
        success: bool,
        sent_at_ms: float,
        finished_at_ms: float,
        node_latency_ms: float = 0.0,
        breakdown: Optional[Mapping[str, float]] = None,
        error: Optional[str] = None,
        pages_copied: int = 0,
        attempts: int = 1,
        transferred_mb: float = 0.0,
    ) -> None:
        self.request_id = request_id
        self.function_key = function_key
        self.path = path
        self.success = success
        self.sent_at_ms = sent_at_ms
        self.finished_at_ms = finished_at_ms
        #: Latency measured at the compute node ("from the moment the
        #: invocation request is received by the node to the moment the
        #: result is returned from the UC", §7).  A remote-warm deploy
        #: includes the replica transfer and the residual remote page
        #: faults, each a stage of the breakdown.
        self.node_latency_ms = node_latency_ms
        if breakdown:
            stages = tuple(breakdown)
            self._stages = _STAGE_NAMES.setdefault(stages, stages)
            self._stage_ms = tuple(breakdown.values())
        else:
            self._stages = self._stage_ms = ()
        self.error = error
        self.pages_copied = pages_copied
        #: Node dispatch attempts the controller made (1 = no retries).
        self.attempts = attempts
        #: Snapshot replica shipped from a peer for the final
        #: attempt's deploy: > 0 marks a remote-warm deploy.
        self.transferred_mb = transferred_mb

    @property
    def breakdown(self) -> Dict[str, float]:
        """Per-stage latency decomposition (node side): a new dict on
        each read, in the order the node charged the stages."""
        return dict(zip(self._stages, self._stage_ms))

    @property
    def latency_ms(self) -> float:
        """Client-observed end-to-end latency."""
        return self.finished_at_ms - self.sent_at_ms

    @property
    def retried(self) -> bool:
        """Whether the controller re-dispatched this request at least once."""
        return self.attempts > 1

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable, compared by value

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._FIELDS
        )
        return f"{self.__class__.__qualname__}({fields})"

