"""SEUSS node configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Tuple

from repro.errors import ConfigError
from repro.seuss.policy import canonical_policy_name


class AOLevel(Enum):
    """Anticipatory-optimization configurations evaluated in Table 2."""

    NONE = "none"
    NETWORK = "network"
    NETWORK_AND_INTERPRETER = "network+interpreter"

    @property
    def network(self) -> bool:
        return self is not AOLevel.NONE

    @property
    def interpreter(self) -> bool:
        return self is AOLevel.NETWORK_AND_INTERPRETER


@dataclass(frozen=True)
class SeussConfig:
    """Configuration of one SEUSS OS compute node.

    Defaults reproduce the paper's testbed: a 16-VCPU, 88 GB QEMU-KVM
    virtual machine running the SEUSS kernel, serving Node.js UCs with
    full anticipatory optimization.
    """

    memory_gb: float = 88.0
    cores: int = 16
    #: Memory held by the SEUSS kernel itself (EbbRT runtime, buffers).
    system_reserved_mb: float = 512.0
    runtimes: Tuple[str, ...] = ("nodejs",)
    ao_level: AOLevel = AOLevel.NETWORK_AND_INTERPRETER
    #: Memory budget for cached function snapshots; the remainder stays
    #: available for live and idle UCs.  70 GiB reproduces the paper's
    #: snapshot-cache capacities (~32,000 NOP snapshots with AO).
    snapshot_cache_budget_mb: float = 71_680.0
    #: Free-memory threshold below which the OOM daemon reclaims idle
    #: UCs ("as soon as the available physical memory drops below a
    #: pre-defined threshold", §6).
    oom_threshold_mb: float = 256.0
    #: Cache idle UCs after an invocation completes (the hot path).
    cache_idle_ucs: bool = True
    #: Capture function snapshots as diffs on the runtime snapshot
    #: (snapshot stacks, §3).  False is the ablation baseline: every
    #: function snapshot is a self-contained copy of the whole image
    #: ("armed with only the snapshot mechanism").
    snapshot_stacks: bool = True
    #: Upper bound on idle UCs kept per function.
    idle_ucs_per_function: int = 512
    #: Record each snapshot's first-invocation working set and prefetch
    #: it on later deploys (REAP-style, Ustiugov et al. ASPLOS 2021).
    #: Opt-in: with this off, deploys take serial demand faults exactly
    #: as before and every experiment table is unchanged.
    prefetch_working_sets: bool = False
    #: Capture-time content-addressed page dedup across function
    #: snapshots (``mem/dedup.py``): duplicate-content regions route
    #: through a refcounted shared frame table scoped by
    #: ``dedup_scope``.  Opt-in: with this off, captures allocate
    #: exactly as before and every experiment table is unchanged.
    page_dedup: bool = False
    #: Merge scope: "lineage" (a function's own snapshots only, SEUSS
    #: §5 confinement), "tenant" (one owner's functions per runtime —
    #: safe default), or "global" (cross-tenant, the KSM side channel
    #: the security audit flags).
    dedup_scope: str = "tenant"
    #: Fraction of a function snapshot's pages that are byte-identical
    #: across snapshots in the same scope (compiled stdlib, interpreter
    #: heap shapes).
    dedup_duplicate_fraction: float = 0.55
    #: Run a retroactive KSM-style scanner over the snapshot category
    #: (merges arrive over time at ``dedup_scan_rate_pages_per_s`` with
    #: the scan cost charged on the sim clock).  Opt-in.
    dedup_scanner: bool = False
    dedup_scan_rate_pages_per_s: float = 25_000.0
    #: Eviction order of the snapshot and idle-UC caches
    #: (``seuss/policy.py``), one policy instance per cache: ``"lru"``
    #: (the seed discipline), ``"lifo"``, ``"hybrid"`` (idle-time
    #: histograms, "Serverless in the Wild") or ``"greedy_dual"``
    #: (FaasCache).
    cache_policy: str = "lru"

    def __post_init__(self) -> None:
        if self.memory_gb <= 0:
            raise ConfigError(f"memory_gb must be positive, got {self.memory_gb}")
        if self.cores < 1:
            raise ConfigError(f"cores must be >= 1, got {self.cores}")
        if not self.runtimes:
            raise ConfigError("at least one runtime is required")
        if self.snapshot_cache_budget_mb < 0 or self.oom_threshold_mb < 0:
            raise ConfigError("memory budgets must be non-negative")
        if self.idle_ucs_per_function < 1:
            raise ConfigError("idle_ucs_per_function must be >= 1")
        if self.dedup_scope not in ("lineage", "tenant", "global"):
            raise ConfigError(
                f"dedup_scope must be lineage|tenant|global, "
                f"got {self.dedup_scope!r}"
            )
        if not 0.0 <= self.dedup_duplicate_fraction < 1.0:
            raise ConfigError(
                f"dedup_duplicate_fraction must be in [0, 1), "
                f"got {self.dedup_duplicate_fraction}"
            )
        if self.dedup_scan_rate_pages_per_s <= 0:
            raise ConfigError("dedup_scan_rate_pages_per_s must be positive")
        object.__setattr__(
            self, "cache_policy", canonical_policy_name(self.cache_policy)
        )
