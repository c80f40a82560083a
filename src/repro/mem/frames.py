"""Physical frame accounting.

:class:`FrameAllocator` stands in for the physical memory of the compute
node (the paper's 88 GB VM).  It tracks allocation by page count and by
category (kernel, snapshots, private UC pages, baseline instances), and
drives the memory-pressure mechanism the paper describes: SEUSS OS runs
a trivial OOM daemon that reclaims idle UCs as soon as free memory drops
below a threshold.

Allocations are counts, not frame objects — sharing in the simulation is
expressed by *not* allocating (a UC deployed from a snapshot allocates
nothing until it writes), exactly mirroring how COW sharing avoids real
frame allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import OutOfMemoryError
from repro.trace import tracer_for
from repro.units import pages_to_mb


@dataclass
class MemoryStats:
    """A point-in-time snapshot of allocator state."""

    total_pages: int
    allocated_pages: int
    peak_pages: int
    by_category: Dict[str, int] = field(default_factory=dict)

    @property
    def free_pages(self) -> int:
        return self.total_pages - self.allocated_pages

    @property
    def allocated_mb(self) -> float:
        return pages_to_mb(self.allocated_pages)

    @property
    def free_mb(self) -> float:
        return pages_to_mb(self.free_pages)

    @property
    def utilization(self) -> float:
        return self.allocated_pages / self.total_pages if self.total_pages else 0.0


#: A reclaim hook: called with the number of pages needed; returns the
#: number of pages it managed to free.
ReclaimHook = Callable[[int], int]


class FrameAllocator:
    """Counts physical 4 KiB frames on a simulated node.

    ``env`` is the node's environment: the allocator, and the snapshots,
    address spaces and frame tables built over it, record into that
    environment's tracer (``None``: the active tracer)."""

    def __init__(self, total_pages: int, env=None) -> None:
        if total_pages <= 0:
            raise ValueError(f"total_pages must be positive, got {total_pages}")
        self.total_pages = total_pages
        self.env = env
        self._allocated = 0
        self._peak = 0
        self._by_category: Dict[str, int] = {}
        self._reclaim_hooks: List[ReclaimHook] = []
        #: When free memory drops below this many pages, reclaim hooks
        #: run even if the current allocation would still succeed.  This
        #: is the SEUSS OOM daemon's "pre-defined threshold".
        self.pressure_threshold_pages = 0

    # -- introspection ---------------------------------------------------
    @property
    def allocated_pages(self) -> int:
        return self._allocated

    @property
    def free_pages(self) -> int:
        return self.total_pages - self._allocated

    @property
    def peak_pages(self) -> int:
        return self._peak

    def category_pages(self, category: str) -> int:
        return self._by_category.get(category, 0)

    def stats(self) -> MemoryStats:
        return MemoryStats(
            total_pages=self.total_pages,
            allocated_pages=self._allocated,
            peak_pages=self._peak,
            by_category=dict(self._by_category),
        )

    # -- pressure handling -------------------------------------------------
    def add_reclaim_hook(self, hook: ReclaimHook) -> None:
        """Register a hook invoked under memory pressure.

        Hooks are tried in registration order until enough memory is
        free.  The SEUSS node registers its idle-UC cache here.
        """
        self._reclaim_hooks.append(hook)

    def _run_reclaim(self, needed_pages: int) -> None:
        # Pressure observability lives here (not on the allocate/free
        # hot path): reclaim is rare, so traces can afford an instant
        # event plus per-category gauges attributing the stall.
        tracer = tracer_for(self.env)
        free_before = self.free_pages
        if tracer.enabled:
            tracer.event(
                "mem.pressure",
                needed_pages=needed_pages,
                free_pages=free_before,
                allocated_pages=self._allocated,
            )
            for category, pages in sorted(self._by_category.items()):
                tracer.gauge(f"mem.allocated.{category}", pages)
        for hook in self._reclaim_hooks:
            if self.free_pages >= needed_pages:
                break
            hook(needed_pages - self.free_pages)
        if tracer.enabled:
            reclaimed = self.free_pages - free_before
            if reclaimed > 0:
                tracer.counter("mem.reclaimed_pages", reclaimed)

    # -- allocation ------------------------------------------------------
    def allocate(self, pages: int, category: str = "anonymous") -> int:
        """Claim ``pages`` frames; raises :class:`OutOfMemoryError`.

        Returns the number of pages allocated (== ``pages``) so call
        sites can accumulate accounting tallies naturally.
        """
        if pages < 0:
            raise ValueError(f"cannot allocate {pages} pages")
        if pages == 0:
            return 0
        free = self.total_pages - self._allocated
        if pages + self.pressure_threshold_pages > free:
            self._run_reclaim(pages + self.pressure_threshold_pages)
            free = self.total_pages - self._allocated
        if pages > free:
            raise OutOfMemoryError(
                f"requested {pages} pages, {free} free "
                f"of {self.total_pages}"
            )
        self._allocated += pages
        if self._allocated > self._peak:
            self._peak = self._allocated
        self._by_category[category] = self._by_category.get(category, 0) + pages
        return pages

    def try_allocate(self, pages: int, category: str = "anonymous") -> bool:
        """Like :meth:`allocate` but returns ``False`` instead of raising."""
        try:
            self.allocate(pages, category)
        except OutOfMemoryError:
            return False
        return True

    def free(self, pages: int, category: str = "anonymous") -> None:
        """Return ``pages`` frames to the pool."""
        if pages < 0:
            raise ValueError(f"cannot free {pages} pages")
        if pages == 0:
            return
        held = self._by_category.get(category, 0)
        if pages > held:
            raise ValueError(
                f"freeing {pages} pages from category {category!r} "
                f"which holds only {held}"
            )
        if pages > self._allocated:
            raise ValueError(f"freeing {pages} pages, only {self._allocated} allocated")
        self._allocated -= pages
        self._by_category[category] = held - pages
        if self._by_category[category] == 0:
            del self._by_category[category]

    def __repr__(self) -> str:
        return (
            f"FrameAllocator(allocated={self._allocated}/{self.total_pages} "
            f"pages, {pages_to_mb(self._allocated):.1f} MB)"
        )


def node_allocator(
    memory_gb: float, reserved_mb: float = 512.0, env=None
) -> FrameAllocator:
    """Build an allocator for a compute node of ``memory_gb`` GiB.

    ``reserved_mb`` models the host kernel / system services footprint
    and is allocated up front under the ``"system"`` category; ``env``
    is the node's environment.
    """
    from repro.units import gb_to_pages, mb_to_pages

    allocator = FrameAllocator(gb_to_pages(memory_gb), env)
    reserved = mb_to_pages(reserved_mb)
    if reserved:
        allocator.allocate(reserved, category="system")
    return allocator
