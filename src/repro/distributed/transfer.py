"""Cross-node snapshot transfer strategies.

Because every UC of a runtime shares one virtual layout and one base
image, a function snapshot is *position-independent data*: shipping its
diff pages to a peer node (whose runtime snapshot is identical) is
enough to deploy the function there.  Three strategies model the design
space the paper cites:

* **FULL_COPY** — ship the whole diff before deploying.
* **ON_DEMAND** — ship a small working set up front and fault the rest
  over the network in the background (SnowFlock-style on-demand paging);
  deployment starts after the working set lands.
* **COLORED** — VM state coloring (Kaleidoscope): semantically rank
  pages so an even smaller, higher-value prefix suffices to start.
* **RECORDED** — REAP-style (Ustiugov et al., ASPLOS 2021): the upfront
  set is the *measured* working-set manifest recorded by the snapshot's
  first invocation, and the residual penalty follows the manifest's
  observed miss rate instead of a constant.  Without a manifest it
  degrades to ON_DEMAND's constants (nothing has been measured yet).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Generator, Optional

from repro.errors import ConfigError
from repro.mem.workingset import WorkingSetManifest
from repro.sim import Environment, Resource

#: Cost of remotely faulting the *entire* working set, used to scale the
#: RECORDED strategy's residual by the observed miss rate.  Solved from
#: ON_DEMAND's constants: its 1.6 ms penalty covers misses over the 75%
#: of the diff it leaves behind, i.e. 1.6 / 0.75 ≈ 2.1 ms for a full
#: working-set's worth of remote faults.
REMOTE_MISS_PENALTY_MS = 2.1


class TransferStrategy(Enum):
    FULL_COPY = "full_copy"
    ON_DEMAND = "on_demand"
    COLORED = "colored"
    RECORDED = "recorded"

    @property
    def upfront_fraction(self) -> float:
        """Fraction of the diff that must land before deployment.

        For RECORDED this is the no-manifest fallback only; with a
        manifest the fraction is measured (see :func:`transfer_plan`).
        """
        if self is TransferStrategy.FULL_COPY:
            return 1.0
        if self is TransferStrategy.COLORED:
            return 0.10
        return 0.25  # ON_DEMAND, and RECORDED before any recording

    @property
    def residual_fault_penalty_ms(self) -> float:
        """Extra first-execution cost of faulting late pages remotely."""
        if self is TransferStrategy.FULL_COPY:
            return 0.0
        if self is TransferStrategy.COLORED:
            return 0.9  # misses are rarer by construction
        return 1.6  # ON_DEMAND, and RECORDED before any recording


@dataclass(frozen=True)
class TransferPlan:
    """Time decomposition of one snapshot transfer."""

    size_mb: float
    strategy: TransferStrategy
    #: Time before the destination can start deploying.
    upfront_ms: float
    #: MB on the wire by then.
    upfront_mb: float
    background_ms: float
    residual_penalty_ms: float
    #: Diff content already resident at the destination (its dedup
    #: frame table holds identical pages) — merged on arrival, never
    #: shipped.  0 without a dedup domain.
    resident_mb: float = 0.0

    @property
    def shipped_mb(self) -> float:
        """Bytes that actually crossed the wire."""
        return self.size_mb - self.resident_mb

    @property
    def total_wire_ms(self) -> float:
        return self.upfront_ms + self.background_ms


@dataclass
class InterconnectStats:
    transfers: int = 0
    mb_moved: float = 0.0
    busy_ms: float = 0.0


class ClusterInterconnect:
    """The 10 GbE fabric between compute nodes.

    Each node has one NIC (a capacity-1 resource), so concurrent
    transfers to/from one node serialize — the realistic constraint on
    replicating a hot snapshot everywhere at once.
    """

    #: 10 GbE: 1 MiB costs ~0.84 ms on the wire.
    DEFAULT_MS_PER_MB = 0.84
    DEFAULT_LATENCY_MS = 0.15

    def __init__(
        self,
        env: Environment,
        nodes: int,
        ms_per_mb: float = DEFAULT_MS_PER_MB,
        latency_ms: float = DEFAULT_LATENCY_MS,
    ) -> None:
        if nodes < 1:
            raise ConfigError(f"nodes must be >= 1, got {nodes}")
        if ms_per_mb <= 0 or latency_ms < 0:
            raise ConfigError("invalid interconnect parameters")
        self.env = env
        self.ms_per_mb = ms_per_mb
        self.latency_ms = latency_ms
        self._nics = [Resource(env, capacity=1) for _ in range(nodes)]
        self.stats = InterconnectStats()

    def add_node(self) -> None:
        """Cable one more node into the fabric (the next NIC index)."""
        self._nics.append(Resource(self.env, capacity=1))

    def plan(
        self,
        size_mb: float,
        strategy: TransferStrategy,
        manifest: Optional[WorkingSetManifest] = None,
        resident_fraction: float = 0.0,
    ) -> TransferPlan:
        return transfer_plan(
            size_mb,
            strategy,
            ms_per_mb=self.ms_per_mb,
            latency_ms=self.latency_ms,
            manifest=manifest,
            resident_fraction=resident_fraction,
        )

    def transfer(
        self,
        src: int,
        dst: int,
        size_mb: float,
        strategy: TransferStrategy,
        manifest: Optional[WorkingSetManifest] = None,
        resident_fraction: float = 0.0,
    ) -> Generator:
        """Sim process: move a snapshot diff; returns the TransferPlan.

        Returns once the *upfront* portion has landed (deployment may
        start); the background remainder streams without blocking the
        caller but keeps both NICs busy.  Interrupted at any point before
        that (a cancelled deploy), it gives back both NIC claims, queued
        or held, and counts nothing.
        """
        if src == dst:
            raise ConfigError("source and destination nodes are the same")
        plan = self.plan(
            size_mb,
            strategy,
            manifest=manifest,
            resident_fraction=resident_fraction,
        )
        src_nic = self._nics[src].request()
        dst_nic = self._nics[dst].request()
        try:
            yield self.env.all_of([src_nic, dst_nic])
            yield self.env.timeout(plan.upfront_ms)
            if plan.background_ms > 0:
                # Stream the remainder; NICs stay held meanwhile.
                def drain():
                    try:
                        yield self.env.timeout(plan.background_ms)
                    finally:
                        self._nics[src].release(src_nic)
                        self._nics[dst].release(dst_nic)

                self.env.process(drain())
            else:
                self._nics[src].release(src_nic)
                self._nics[dst].release(dst_nic)
        except BaseException:
            self._nics[src].release(src_nic)
            self._nics[dst].release(dst_nic)
            raise
        self.stats.transfers += 1
        self.stats.mb_moved += plan.shipped_mb
        self.stats.busy_ms += plan.total_wire_ms
        return plan


def transfer_plan(
    size_mb: float,
    strategy: TransferStrategy,
    ms_per_mb: float = ClusterInterconnect.DEFAULT_MS_PER_MB,
    latency_ms: float = ClusterInterconnect.DEFAULT_LATENCY_MS,
    manifest: Optional[WorkingSetManifest] = None,
    resident_fraction: float = 0.0,
) -> TransferPlan:
    """Compute the time decomposition of one transfer.

    ``manifest`` only affects the RECORDED strategy: the upfront set
    becomes the recorded working set (capped at the diff itself) and
    the residual penalty scales :data:`REMOTE_MISS_PENALTY_MS` by the
    manifest's observed miss rate.  Every other strategy — and RECORDED
    with nothing recorded yet — uses the enum's constants.

    ``resident_fraction`` is the part of the diff already resident at
    the destination via its dedup frame table: those pages merge on
    arrival for free and never cross the wire, shrinking both the
    upfront and background portions proportionally.
    """
    if size_mb < 0:
        raise ConfigError(f"negative transfer size {size_mb}")
    if not 0.0 <= resident_fraction <= 1.0:
        raise ConfigError(
            f"resident_fraction {resident_fraction} not in [0, 1]"
        )
    fraction = strategy.upfront_fraction
    residual = strategy.residual_fault_penalty_ms
    shipped_mb = size_mb * (1.0 - resident_fraction)
    if (
        strategy is TransferStrategy.RECORDED
        and manifest is not None
        and size_mb > 0
    ):
        upfront_mb = min(size_mb, manifest.size_mb)
        fraction = upfront_mb / size_mb
        residual = REMOTE_MISS_PENALTY_MS * manifest.miss_rate
    if size_mb == 0:
        # A zero-size diff leaves nothing behind to fault remotely.
        residual = 0.0
    wire_ms = shipped_mb * ms_per_mb
    upfront = latency_ms + wire_ms * fraction
    background = wire_ms * (1.0 - fraction)
    return TransferPlan(
        size_mb=size_mb,
        strategy=strategy,
        upfront_ms=upfront,
        upfront_mb=shipped_mb * fraction,
        background_ms=background,
        residual_penalty_ms=residual,
        resident_mb=size_mb - shipped_mb,
    )
