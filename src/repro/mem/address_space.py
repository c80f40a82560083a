"""Copy-on-write address spaces.

An :class:`AddressSpace` is the memory view of one unikernel context.
Deploying from a snapshot performs the paper's "shallow copy of snapshot
page table structure": the new space maps every page of the snapshot
stack read-only and owns nothing.  Writes fault at page granularity;
each fault allocates a private frame (accounted in the node's
:class:`~repro.mem.frames.FrameAllocator`) and copies the page.

Dirty tracking mirrors the x86 dirty-bit scheme the prototype uses:
``capture_snapshot`` collects exactly the pages written since the last
capture (or since creation) and clears the dirty set, like SEUSS OS
walking and clearing dirty PTEs.

The simulator's own page sets are copy-on-write too.  A space's private
and dirty sets start as the canonical empty set and stay frozen while
each write into them is one seen before: a write into a frozen set is
a memoised transition (:meth:`IntervalSet.cow_write`) that hands out
the canonical set holding the union.  A new write is computed once and
leaves a list-backed copy, which later writes splice in place until
the UC is parked idle and the sets are interned again
(:meth:`AddressSpace.intern_page_sets`).  Reads of a frozen private
set are memoised the same way, so a repeated deploy of one shape writes
and probes its memory by table lookups, and idle UCs of one shape keep
one copy of each set between them.  A memoised write allocates exactly
what a computed one would, at the same point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SnapshotError
from repro.mem.frames import FrameAllocator
from repro.mem.intervals import EMPTY, IntervalSet, make_room, memo_table
from repro.mem.paging import (
    page_table_pages_for,
    record_page_faults,
    record_page_prefetch,
    record_page_table_build,
)
from repro.mem.snapshot import CpuState, Snapshot
from repro.units import pages_to_mb

#: Allocation categories for per-UC memory.
PRIVATE_CATEGORY = "uc_private"
PAGE_TABLE_CATEGORY = "uc_page_table"


@dataclass(frozen=True)
class WriteResult:
    """Outcome of a write: how much faulted vs. hit private pages."""

    pages_written: int
    pages_copied: int
    extents_copied: int

    @property
    def mb_copied(self) -> float:
        return pages_to_mb(self.pages_copied)


@dataclass(frozen=True)
class BatchResolveResult:
    """Outcome of a batched COW resolution (:meth:`AddressSpace.resolve_batch`).

    ``resolved`` holds exactly the intervals that were newly installed
    (requested minus already-private); the invoker intersects it with
    the invocation's write set to compute prefetch hits.
    """

    pages_requested: int
    pages_resolved: int
    pages_from_stack: int
    pages_fresh: int
    extents: int
    resolved: IntervalSet

    @property
    def mb_resolved(self) -> float:
        return pages_to_mb(self.pages_resolved)


@dataclass(frozen=True)
class ReadResult:
    """Outcome of a read: where pages resolved from."""

    pages_read: int
    pages_private: int
    pages_from_stack: int
    pages_unmapped: int


class FaultResolution:
    """How a page fault is resolved (§6 "Capturing Snapshots").

    "Depending on the semantics of a page fault, SEUSS OS may allocate
    a new page, clone a page from within the backing snapshot stack, or
    resolve the fault with a read-only mapping to a page within the
    source snapshot stack."
    """

    ALLOCATE_NEW = "allocate_new"  # write to an unmapped page
    CLONE_FROM_STACK = "clone_from_stack"  # write to a snapshot page (COW)
    MAP_READ_ONLY = "map_read_only"  # read of a snapshot page
    ALREADY_PRIVATE = "already_private"  # no fault: page is owned
    INVALID = "invalid"  # read of an unmapped page


class AddressSpace:
    """One unikernel context's paged memory."""

    __slots__ = (
        "name",
        "_allocator",
        "_base",
        "_stack",
        "_dedup",
        "_private",
        "_dirty",
        "_destroyed",
        "_faults",
        "_prefetched",
        "_recorded",
        "_page_table_pages",
    )

    def __init__(
        self,
        allocator: FrameAllocator,
        base: Optional[Snapshot] = None,
        name: str = "uc",
        dedup=None,
    ) -> None:
        self.name = name
        self._allocator = allocator
        self._base = base
        self._dedup = dedup
        self._private = EMPTY
        self._dirty = EMPTY
        self._destroyed = False
        self._faults = 0
        self._prefetched = 0
        self._recorded: Optional[IntervalSet] = None
        if base is not None:
            if base.deleted:
                raise SnapshotError(
                    f"cannot deploy from deleted snapshot {base.name!r}"
                )
            base.retain()
            # The base is held, so it cannot be deleted and its stack
            # union cannot change: reads look it up here, once.
            self._stack = base.stack_pages_view()
            mapped = self._stack.page_count
        else:
            self._stack = None
            mapped = 0
        # The shallow page-table copy is the only memory cost of deploying
        # from a snapshot.
        self._page_table_pages = page_table_pages_for(mapped)
        allocator.allocate(self._page_table_pages, PAGE_TABLE_CATEGORY)
        record_page_table_build(allocator.env, self._page_table_pages)

    # -- introspection ---------------------------------------------------
    @property
    def base(self) -> Optional[Snapshot]:
        """The snapshot (stack top) this space currently diffs against."""
        return self._base

    @property
    def destroyed(self) -> bool:
        return self._destroyed

    @property
    def private_pages(self) -> int:
        """Pages backed by frames this space owns exclusively."""
        return self._private.page_count

    @property
    def dirty_pages(self) -> int:
        """Pages written since the last snapshot capture."""
        return self._dirty.page_count

    @property
    def page_table_pages(self) -> int:
        return self._page_table_pages

    @property
    def resident_pages(self) -> int:
        """Physical frames attributable to this space alone."""
        return self._private.page_count + self._page_table_pages

    @property
    def resident_mb(self) -> float:
        return pages_to_mb(self.resident_pages)

    @property
    def fault_count(self) -> int:
        """Total COW faults taken over the space's lifetime.

        Batched resolutions (:meth:`resolve_batch`) do not count here:
        the point of prefetching is that those pages never fault.
        """
        return self._faults

    @property
    def prefetched_pages(self) -> int:
        """Pages installed by batched resolutions over the lifetime."""
        return self._prefetched

    @property
    def recording(self) -> bool:
        return self._recorded is not None

    def mapped_pages(self) -> IntervalSet:
        """All pages readable in this space (stack + private)."""
        if self._stack is None:
            return self._private.copy()
        return self._stack.union(self._private)

    def dirty_set(self) -> IntervalSet:
        return self._dirty.copy()

    def private_set(self) -> IntervalSet:
        return self._private.copy()

    # -- memory operations -------------------------------------------------
    def _check_live(self) -> None:
        """Raise unless the space is live.  The request path tests
        ``_destroyed`` itself and calls this only to raise."""
        if self._destroyed:
            raise SnapshotError(f"address space {self.name!r} is destroyed")

    def write(self, start: int, npages: int) -> WriteResult:
        """Write ``npages`` pages at ``start``.

        Pages without a private copy fault: a frame is allocated per
        page and the content is copied from the snapshot stack (or
        zero-filled if unmapped).  Already-private pages are written in
        place.  Every written page becomes dirty.
        """
        if self._destroyed:
            self._check_live()
        if npages < 0:
            raise ValueError(f"negative page count {npages}")
        if start < 0:
            # Before the memo lookup and the allocation, so a rejected
            # write leaves the allocator as it was on every path.
            raise ValueError(f"negative page number {start}")
        if npages == 0:
            return WriteResult(0, 0, 0)
        stop = start + npages
        private, dirty = self._private, self._dirty
        # The dirty set's transition is looked up first: while both are
        # one shared set (until a capture), a new write then leaves the
        # list-backed copy to the dirty set and the canonical union to
        # the private set, whose reads are memoised too.  A rewrite of
        # dirty pages (every write of a hot invocation) leaves a frozen
        # dirty set as it is.
        dirtied = dirty.cow_write(start, stop)[0] if dirty.frozen else None
        if private.frozen:
            written, copied, extents = private.cow_write(start, stop)
        else:
            written = private
            gaps = private.missing_in_range(start, stop)
            copied = 0
            for s, e in gaps:
                copied += e - s
            extents = len(gaps)
        if copied:
            # Allocate before installing, so running out of memory
            # leaves both sets as they were.
            self._allocator.allocate(copied, PRIVATE_CATEGORY)
            if written is private:
                # List-backed: one splice covers every gap at once
                # (adding the full range leaves private pages as they
                # are and fills the holes).
                private.add(start, stop)
            else:
                self._private = written
            self._faults += copied
            record_page_faults(self._allocator.env, copied, extents)
        if dirtied is None:
            dirty.add(start, stop)
        else:
            self._dirty = dirtied
        if self._recorded is not None:
            self._recorded.add(start, stop)
        return WriteResult(
            pages_written=npages, pages_copied=copied, extents_copied=extents
        )

    # -- working-set recording and batched resolution --------------------
    def start_write_recording(self) -> None:
        """Begin capturing the write set (for working-set manifests).

        When idle this costs one ``None`` check per :meth:`write`; the
        recorded set is the *write* set, not the copy set — a replayed
        invocation whose pages were prefetched writes the same
        intervals without faulting, so recordings stay comparable
        across lazy and prefetched runs.
        """
        self._check_live()
        self._recorded = IntervalSet()

    def stop_write_recording(self) -> IntervalSet:
        """End the recording window and return the captured write set."""
        recorded = self._recorded if self._recorded is not None else IntervalSet()
        self._recorded = None
        return recorded

    def resolve_batch(self, wanted: IntervalSet) -> BatchResolveResult:
        """Install private copies of ``wanted`` in one batched operation.

        This is the REAP restore path: instead of trapping once per
        page, the whole working set is resolved with bulk interval
        algebra — pages present in the snapshot stack are cloned,
        the rest are zero-filled fresh allocations (a recorded working
        set legitimately contains pages the stack never mapped, e.g.
        the listen/connect regions a cold start touches).  Pages that
        are already private are skipped.

        Installed pages are *not* marked dirty (their content equals
        what a demand fault would have produced, and dirty tracking
        must keep meaning "diverged since last capture") and do not
        increment :attr:`fault_count` — they land in
        :attr:`prefetched_pages` instead.
        """
        self._check_live()
        need = wanted.difference(self._private)
        pages = need.page_count
        if pages == 0:
            return BatchResolveResult(
                pages_requested=wanted.page_count,
                pages_resolved=0,
                pages_from_stack=0,
                pages_fresh=0,
                extents=0,
                resolved=need,
            )
        from_stack = 0
        if self._stack is not None:
            from_stack = need.intersection(self._stack).page_count
        self._allocator.allocate(pages, PRIVATE_CATEGORY)
        private = self._private
        if private.frozen:
            private = self._private = private.copy()
        private.update(need)
        self._prefetched += pages
        record_page_prefetch(self._allocator.env, pages)
        return BatchResolveResult(
            pages_requested=wanted.page_count,
            pages_resolved=pages,
            pages_from_stack=from_stack,
            pages_fresh=pages - from_stack,
            extents=need.extent_count,
            resolved=need,
        )

    def read(self, start: int, npages: int) -> ReadResult:
        """Read ``npages`` pages at ``start``; no frames are allocated.

        Reads of snapshot pages resolve through the stack with read-only
        mappings (the fault semantics of §6 "Capturing Snapshots").
        """
        if self._destroyed:
            self._check_live()
        if npages < 0:
            raise ValueError(f"negative page count {npages}")
        private, stack = self._private, self._stack
        if not private.frozen:
            return _resolve_read(private, stack, start, npages)
        # Both sets are frozen: the answer is a memoised transition,
        # shared by every space that reads the same range of them.
        key = (id(private), None if stack is None else id(stack), start, npages)
        entry = _READS.get(key)
        if entry is None:
            make_room(_READS)
            entry = (private, stack, _resolve_read(private, stack, start, npages))
            _READS[key] = entry
        return entry[2]

    def classify_fault(self, page: int, write: bool) -> str:
        """The §6 fault taxonomy for one access, without performing it.

        Returns one of the :class:`FaultResolution` constants.
        """
        self._check_live()
        if page in self._private:
            return FaultResolution.ALREADY_PRIVATE
        in_stack = self._stack is not None and page in self._stack
        if write:
            return (
                FaultResolution.CLONE_FROM_STACK
                if in_stack
                else FaultResolution.ALLOCATE_NEW
            )
        return (
            FaultResolution.MAP_READ_ONLY
            if in_stack
            else FaultResolution.INVALID
        )

    # -- snapshotting ----------------------------------------------------
    def capture_snapshot(
        self,
        name: str,
        cpu: Optional[CpuState] = None,
        flatten: bool = False,
        content_namespace: Optional[str] = None,
    ) -> Snapshot:
        """Capture the dirty pages as a new immutable snapshot.

        The new snapshot's parent is this space's current base, forming
        a snapshot stack.  After capture the space keeps running with
        the new snapshot as its base and a cleared dirty set (the x86
        dirty bits are reset).

        ``flatten=True`` captures a *self-contained* snapshot instead:
        every mapped page (the whole stack plus the dirty diff) is
        cloned and the snapshot has no parent.  This is the ablation
        baseline for §3's snapshot stacks — "armed with only the
        snapshot mechanism" — and the format used when shipping a
        snapshot to another node (§9).
        """
        if self._destroyed:
            self._check_live()
        if flatten:
            snapshot = Snapshot(
                name=name,
                pages=self.mapped_pages(),
                allocator=self._allocator,
                parent=None,
                cpu=cpu,
                dedup=self._dedup,
                content_namespace=content_namespace,
            )
        else:
            snapshot = Snapshot(
                name=name,
                pages=self._dirty,
                allocator=self._allocator,
                parent=self._base,
                cpu=cpu,
                dedup=self._dedup,
                content_namespace=content_namespace,
            )
        if self._base is not None:
            self._base.release()
        self._base = snapshot
        self._base.retain()
        self._stack = snapshot.stack_pages_view()
        self._dirty = EMPTY
        return snapshot

    def intern_page_sets(self) -> None:
        """Share the private and dirty sets: each list-backed one is
        swapped for the canonical frozen set of its content.

        Called when the UC is parked idle, so idle UCs of one shape
        hold one copy of each set.  A frozen set was interned already
        and is left as it is: a hot invocation, whose writes changed
        neither set, pays two tests.
        """
        if not self._private.frozen:
            self._private = self._private.interned()
        if not self._dirty.frozen:
            self._dirty = self._dirty.interned()

    def destroy(self) -> int:
        """Tear down the space, freeing private frames and page tables.

        Returns the number of pages released (the reclaim yield used by
        the OOM daemon).
        """
        if self._destroyed:
            return 0
        freed = self._private.page_count + self._page_table_pages
        self._allocator.free(self._private.page_count, PRIVATE_CATEGORY)
        self._allocator.free(self._page_table_pages, PAGE_TABLE_CATEGORY)
        if self._base is not None:
            self._base.release()
            self._base = None
            self._stack = None
        self._private = EMPTY
        self._dirty = EMPTY
        self._destroyed = True
        return freed

    def __repr__(self) -> str:
        return (
            f"AddressSpace({self.name!r}, private={self.private_pages}p, "
            f"dirty={self.dirty_pages}p, base={self._base and self._base.name})"
        )


#: Reads of frozen private sets by ``(id(private), id(stack) or None,
#: start, npages)``, each entry ``(private, stack, ReadResult)``.
_READS = memo_table("reads")


def _resolve_read(
    private: IntervalSet, stack: Optional[IntervalSet], start: int, npages: int
) -> ReadResult:
    """Where a read of ``npages`` at ``start`` resolves, given the
    private set and the stack union (``None`` without a base)."""
    stop = start + npages
    owned = private.overlap_size(start, stop)
    from_stack = 0
    if stack is not None and owned < npages:
        # Answer "in the stack but not private" directly against the
        # memoised stack union: no temporary IntervalSet per read.
        for s, e in private.missing_in_range(start, stop):
            from_stack += stack.overlap_size(s, e)
    return ReadResult(
        pages_read=npages,
        pages_private=owned,
        pages_from_stack=from_stack,
        pages_unmapped=npages - owned - from_stack,
    )
