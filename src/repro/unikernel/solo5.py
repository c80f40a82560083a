"""The Solo5 hypercall surface.

SEUSS narrows the domain interface between the untrusted unikernel and
the trusted kernel to the twelve hypercalls of the Solo5/ukvm middleware
(§5): "the hypercall interface used in our prototype, ukvm, exposes only
12 system calls while the standard security of a Docker container gives
access to over 300 Linux syscalls."

:func:`check_hypercall` enforces that narrowing: a guest may only invoke
names in :data:`SOLO5_HYPERCALLS`.  Each UC crosses the boundary through
:meth:`~repro.unikernel.context.UnikernelContext.hypercall`, which counts
its crossings so tests and the security example can audit the domain
traffic.
"""

from __future__ import annotations

from typing import FrozenSet

from repro.errors import IsolationError

#: The ukvm/Solo5 hypercall set (12 calls).
SOLO5_HYPERCALLS: FrozenSet[str] = frozenset(
    {
        "walltime",
        "puts",
        "poll",
        "blkinfo",
        "blkwrite",
        "blkread",
        "netinfo",
        "netwrite",
        "netread",
        "halt",
        "mem_info",
        "cpu_info",
    }
)

#: Size of the default Docker seccomp allow-list, for the comparison the
#: paper draws in §5 (over 300 Linux syscalls).
DOCKER_SECCOMP_SYSCALL_COUNT = 313


def check_hypercall(name: str) -> None:
    """Raise :class:`IsolationError` unless ``name`` is a Solo5 hypercall."""
    if name not in SOLO5_HYPERCALLS:
        raise IsolationError(
            f"hypercall {name!r} is outside the {len(SOLO5_HYPERCALLS)}-call "
            "domain interface"
        )
