"""Security-model accounting (§5).

SEUSS isolates UCs with hardware protection rings and narrows the
guest/host interface to Solo5's 12 hypercalls, versus the 300+ Linux
syscalls a Docker container's default seccomp profile exposes.  Snapshot
sharing is restricted to read-only pages, and — unlike KSM — sharing is
never applied retroactively, which removes deduplication side channels.

This module packages those claims as inspectable data so examples and
tests can audit them against the live mechanisms (the
:func:`~repro.unikernel.solo5.check_hypercall` boundary each UC crosses
through :meth:`~repro.unikernel.context.UnikernelContext.hypercall`, and
the COW semantics of :class:`~repro.mem.AddressSpace`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.unikernel.solo5 import DOCKER_SECCOMP_SYSCALL_COUNT, SOLO5_HYPERCALLS


@dataclass(frozen=True)
class IsolationProfile:
    """The attack-surface profile of one isolation mechanism."""

    mechanism: str
    domain_interface_calls: int
    hardware_enforced: bool
    sharing: str
    retroactive_dedup: bool

    @property
    def narrow_interface(self) -> bool:
        """A domain interface small enough to audit call-by-call."""
        return self.domain_interface_calls <= 32


SEUSS_PROFILE = IsolationProfile(
    mechanism="SEUSS unikernel context (ring 3 over ukvm hypercalls)",
    domain_interface_calls=len(SOLO5_HYPERCALLS),
    hardware_enforced=True,
    sharing="read-only pages within the function's own snapshot lineage",
    retroactive_dedup=False,
)

DOCKER_PROFILE = IsolationProfile(
    mechanism="Docker container (namespaces + default seccomp)",
    domain_interface_calls=DOCKER_SECCOMP_SYSCALL_COUNT,
    hardware_enforced=False,
    sharing="host page cache and KSM (retroactive, content-based)",
    retroactive_dedup=True,
)


def interface_comparison() -> Tuple[IsolationProfile, IsolationProfile]:
    """(SEUSS, Docker) profiles — the §5 comparison."""
    return SEUSS_PROFILE, DOCKER_PROFILE


@dataclass(frozen=True)
class DedupAudit:
    """Security verdict on one page-dedup policy (§5).

    The known dedup side channel needs two ingredients: pages merged
    *across trust domains* and an attacker-observable signal (CoW
    write-fault latency, or merge-arrival timing under a retroactive
    scanner).  Lineage- and tenant-scoped merging never crosses a
    trust boundary, so the channel does not exist there — exactly the
    paper's argument for confining sharing to a function's own lineage.
    """

    scope: str
    retroactive: bool
    cross_tenant: bool
    side_channel: bool
    rationale: str


def audit_dedup(scope: str, retroactive: bool = False) -> DedupAudit:
    """Audit a dedup configuration for the §5 side channel.

    ``scope`` is one of ``lineage`` / ``tenant`` / ``global`` (the
    :mod:`repro.mem.dedup` merge scopes).  Only global, cross-tenant
    merging flags the side channel; ``retroactive`` additionally marks
    the KSM-style timing signal (merge arrival is observable), which is
    noted in the rationale but is only exploitable across tenants.
    """
    if scope not in ("lineage", "tenant", "global"):
        raise ValueError(
            f"scope must be lineage|tenant|global, got {scope!r}"
        )
    cross_tenant = scope == "global"
    if cross_tenant:
        rationale = (
            "content-based merging across tenants: a tenant can probe "
            "CoW write-fault latency to learn whether another tenant "
            "holds a given page (the KSM dedup side channel)"
            + (
                "; retroactive merge arrival adds a timing signal"
                if retroactive
                else ""
            )
        )
    elif scope == "tenant":
        rationale = (
            "merging confined to one tenant's own functions: no page is "
            "ever shared across a trust boundary, so the dedup side "
            "channel has no victim"
        )
    else:
        rationale = (
            "merging confined to a function's own snapshot lineage — "
            "the paper's policy: sharing established at snapshot time, "
            "never across functions or tenants"
        )
    return DedupAudit(
        scope=scope,
        retroactive=retroactive,
        cross_tenant=cross_tenant,
        side_channel=cross_tenant,
        rationale=rationale,
    )


def attack_surface_reduction_factor() -> float:
    """How many times smaller the SEUSS domain interface is."""
    return (
        DOCKER_PROFILE.domain_interface_calls
        / SEUSS_PROFILE.domain_interface_calls
    )
