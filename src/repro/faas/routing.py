"""The routing layer: one pluggable policy behind every selection site.

Every control-plane shard's :class:`~repro.faas.health.NodeRouter`
asks a :class:`RoutingPolicy` which node should serve a request, and
only the policy knows anything about *where snapshots live* — the
state the SEUSS caches and the working-set manifests pay to build:

* :func:`rank_by_load` — the shared least-loaded core: a stable sort,
  so ties keep candidate order, which preserves the router's
  round-robin rotation.
* :class:`RoutingPolicy` — orders routable candidates for one
  dispatch.  :class:`RoundRobinPolicy` (the default),
  :class:`LeastLoadedPolicy` (backpressure) and
  :class:`SnapshotAffinityPolicy` (prefer nodes already holding the
  function's snapshot, live UC, or recorded working set; spill past
  the :mod:`repro.distributed.transfer` cost of shipping a replica).
* :class:`RoutingStats` — decision / locality-hit counters surfaced by
  the resilience report and the ``scale`` experiment.

Policies are pure bookkeeping: they never schedule events or advance
the sim clock, so a policy swap changes *which node serves a request*,
never the cost of deciding.  The round-robin default reproduces the
historical selection order bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.distributed.transfer import TransferStrategy, transfer_plan
from repro.errors import ConfigError
from repro.trace import tracer_for

CandidateT = TypeVar("CandidateT")

#: Default cost (ms) attributed to each unit of load difference when
#: the affinity policy weighs a loaded holder against an idle
#: non-holder: one queued invocation ahead of you costs roughly one
#: short function body.
DEFAULT_QUEUE_COST_MS = 5.0


# -- shared least-loaded core --------------------------------------------------
def rank_by_load(
    candidates: Sequence[CandidateT],
    load_of: Callable[[CandidateT], object],
) -> List[CandidateT]:
    """Candidates in ascending load order; ties keep candidate order.

    The stable sort is load-bearing: the router feeds candidates in
    rotation order, so equally-loaded nodes keep the round-robin
    rotation exactly as the historical ``prefer_least_loaded`` did.
    """
    return sorted(candidates, key=load_of)


# -- stats ------------------------------------------------------------------
@dataclass
class RoutingStats:
    """Counters one router accumulates."""

    #: Routing decisions made (every ``select`` call).
    decisions: int = 0
    #: Affinity decisions that landed on a node already holding the
    #: function's snapshot / UC / working set.
    locality_hits: int = 0
    #: Affinity decisions that had to place the function somewhere new.
    locality_misses: int = 0
    #: Locality misses forced by load: a holder existed but was
    #: overloaded past the transfer-cost break-even point.
    spills: int = 0

    @property
    def locality_decisions(self) -> int:
        return self.locality_hits + self.locality_misses

    @property
    def locality_hit_rate(self) -> float:
        total = self.locality_decisions
        return self.locality_hits / total if total else 0.0

    def merge(self, other: "RoutingStats") -> None:
        """Fold ``other`` into this record (per-shard aggregation)."""
        self.decisions += other.decisions
        self.locality_hits += other.locality_hits
        self.locality_misses += other.locality_misses
        self.spills += other.spills


# -- locality probes --------------------------------------------------------
def candidate_node(candidate):
    """The compute node behind a routable candidate.

    Routers rank :class:`~repro.faas.health.NodeHealth` wrappers; other
    call sites may rank bare nodes.  Both work.
    """
    return getattr(candidate, "node", candidate)


def node_holds(node, fn_key: str) -> bool:
    """Does ``node`` already hold state that makes ``fn_key`` fast?

    True when the node has the function's snapshot cached, a live idle
    UC for it, or its recorded working-set manifest — the three local
    artifacts that turn a deploy from cold/remote into warm/hot.
    Nodes without those attributes (e.g. the Linux baseline) simply
    never report locality.
    """
    cache = getattr(node, "snapshot_cache", None)
    if cache is not None and fn_key in cache:
        return True
    uc_cache = getattr(node, "uc_cache", None)
    if uc_cache is not None and uc_cache.function_count(fn_key) > 0:
        return True
    working_sets = getattr(node, "working_sets", None)
    return working_sets is not None and working_sets.get(fn_key) is not None


# -- policies ---------------------------------------------------------------
class RoutingPolicy:
    """Orders the routable candidates for one dispatch.

    ``rank`` receives the candidates in the router's rotation order and
    returns them in preference order; the router then walks the ranking
    through each candidate's admission gate (breakers, drain flags).
    ``note_selected`` is the post-selection bookkeeping hook — it must
    not schedule events or advance the clock.
    """

    name = "policy"

    def rank(self, candidates: Sequence, fn=None) -> Sequence:
        raise NotImplementedError

    def note_selected(self, selected, fn, stats: RoutingStats, env=None) -> None:
        """Record the outcome of one decision (pure bookkeeping)."""


class RoundRobinPolicy(RoutingPolicy):
    """The historical default: take candidates in rotation order."""

    name = "round_robin"

    def rank(self, candidates: Sequence, fn=None) -> Sequence:
        return candidates


#: Shared default instance (stateless, safe to share between routers).
ROUND_ROBIN = RoundRobinPolicy()


class LeastLoadedPolicy(RoutingPolicy):
    """Ascending load, rotation order on ties (historical backpressure).

    ``load_of`` maps a candidate to its load; the overload control
    plane feeds admission-queue depth here, exactly as
    ``NodeRouter.prefer_least_loaded`` always did.
    """

    name = "least_loaded"

    def __init__(self, load_of: Callable) -> None:
        self.load_of = load_of

    def rank(self, candidates: Sequence, fn=None) -> Sequence:
        return rank_by_load(candidates, self.load_of)


class SnapshotAffinityPolicy(RoutingPolicy):
    """Prefer nodes already holding the function's snapshot state.

    Candidates holding the function's snapshot, a live UC, or its
    recorded working set come first (least-loaded among them when a
    load signal is installed); everyone else follows in load order.
    When every holder is loaded past the *transfer-cost break-even
    point* — the estimated cost of acquiring the snapshot elsewhere
    (the :func:`repro.distributed.transfer.transfer_plan` cost model:
    upfront wire time plus residual remote-fault penalty, sized from
    the recorded working-set manifest when one exists) divided by
    :attr:`queue_cost_ms` — the decision spills to the least-loaded
    non-holder instead: at that point shipping state is cheaper than
    queueing behind it.
    """

    name = "snapshot_affinity"

    def __init__(
        self,
        load_of: Optional[Callable] = None,
        queue_cost_ms: float = DEFAULT_QUEUE_COST_MS,
    ) -> None:
        if queue_cost_ms <= 0:
            raise ConfigError("queue_cost_ms must be positive")
        self.load_of = load_of
        self.queue_cost_ms = queue_cost_ms
        #: Set by :meth:`rank` when the last decision demoted loaded
        #: holders; consumed by :meth:`note_selected` to count spills.
        self._last_ranking_spilled = False

    # -- cost model --------------------------------------------------------
    def _acquisition_cost_ms(self, holders: Sequence, fn_key: str) -> float:
        """Estimated cost of deploying ``fn_key`` on a non-holder.

        Priced with the cluster-transfer cost model: latency + upfront
        wire time for the working set of the strategy the holder's
        cluster ships (``node.replicas``; RECORDED, manifest-sized, when
        it ships none) + the residual remote-fault penalty.
        """
        for holder in holders:
            node = candidate_node(holder)
            cache = getattr(node, "snapshot_cache", None)
            snapshot = cache.peek(fn_key) if cache is not None else None
            if snapshot is None:
                continue
            replicas = node.replicas
            strategy = (
                replicas.strategy
                if replicas is not None
                else TransferStrategy.RECORDED
            )
            plan = transfer_plan(
                snapshot.size_mb,
                strategy,
                manifest=node.working_sets.get(fn_key),
            )
            return plan.upfront_ms + plan.residual_penalty_ms
        # Holders with only a UC / manifest but no snapshot to ship: a
        # transfer of nothing costs the link latency alone, whatever
        # the strategy — cheap, so spilling engages readily.
        return transfer_plan(0.0, TransferStrategy.RECORDED).upfront_ms

    # -- ranking -----------------------------------------------------------
    def rank(self, candidates: Sequence, fn=None) -> Sequence:
        self._last_ranking_spilled = False
        if fn is None:
            if self.load_of is not None:
                return rank_by_load(candidates, self.load_of)
            return candidates
        key = fn.key
        holders = []
        others = []
        for candidate in candidates:
            if node_holds(candidate_node(candidate), key):
                holders.append(candidate)
            else:
                others.append(candidate)
        if self.load_of is not None:
            holders = rank_by_load(holders, self.load_of)
            others = rank_by_load(others, self.load_of)
            if holders and others:
                load_gap = self.load_of(holders[0]) - self.load_of(others[0])
                if load_gap > 0:
                    margin = (
                        self._acquisition_cost_ms(holders, key)
                        / self.queue_cost_ms
                    )
                    if load_gap > margin:
                        # Queueing behind the holder costs more than
                        # re-acquiring the state elsewhere: spill.
                        self._last_ranking_spilled = True
                        return others + holders
        return holders + others

    def note_selected(self, selected, fn, stats: RoutingStats, env=None) -> None:
        if fn is None:
            return
        hit = node_holds(candidate_node(selected), fn.key)
        if hit:
            stats.locality_hits += 1
        else:
            stats.locality_misses += 1
            if self._last_ranking_spilled:
                stats.spills += 1
        self._last_ranking_spilled = False
        if env is not None:
            tracer = tracer_for(env)
            if tracer.enabled:
                tracer.counter(
                    "route.locality_hit" if hit else "route.locality_miss"
                )


#: Policy names accepted by :func:`make_policy` (and the cluster/plane
#: ``routing=`` knobs).
POLICY_NAMES = ("round_robin", "least_loaded", "snapshot_affinity")


def make_policy(
    name: str,
    load_of: Optional[Callable] = None,
    queue_cost_ms: float = DEFAULT_QUEUE_COST_MS,
) -> RoutingPolicy:
    """Build a routing policy from its wire name."""
    if name == "round_robin":
        return ROUND_ROBIN
    if name == "least_loaded":
        if load_of is None:
            raise ConfigError("least_loaded routing requires a load signal")
        return LeastLoadedPolicy(load_of)
    if name == "snapshot_affinity":
        return SnapshotAffinityPolicy(
            load_of=load_of, queue_cost_ms=queue_cost_ms
        )
    raise ConfigError(
        f"unknown routing policy {name!r}; known: {list(POLICY_NAMES)}"
    )
