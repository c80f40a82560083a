"""Content-addressed page deduplication.

SEUSS's density win comes from *lineage-confined* sharing: a UC deployed
from a snapshot shares every inherited page by construction, and the
paper explicitly contrasts that with KSM's retroactive, content-based
merging and its known cross-tenant side channel (§5).  This module adds
the missing middle of that design space to the memory substrate:

* a deterministic **content-identity model** — at capture time a
  snapshot's pages are stamped with seed-stable content classes
  (fixed-size chunks of its duplicate region, e.g.
  ``tenant:alice:nodejs:0-8`` for the interpreter/stdlib bits every
  function of a tenant dirties identically, while the remainder stays
  ``private:<fn>`` and is never merged);
* a refcounted :class:`SharedFrameTable` layered on
  :class:`~repro.mem.frames.FrameAllocator` — the first holder of a
  content class allocates its frames, later holders bump a refcount,
  and frames return to the pool only at refcount zero;
* two merge modes: **capture-time** dedup (SEUSS-style — free,
  established the moment a snapshot is taken, scoped by the tenant
  policy) and a **retroactive scanner** (:class:`PageScanner`, also
  the model of Linux KSM) that merges duplicates
  at a bounded scan rate with its cost charged on the sim clock and a
  CoW un-merge path for written pages.

Everything here is opt-in: a ``SeussNode`` without ``page_dedup`` /
``dedup_scanner`` in its config never constructs a
:class:`DedupDomain`, and a :class:`~repro.mem.snapshot.Snapshot`
captured without one allocates exactly as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.trace import tracer_for
from repro.units import pages_to_mb

#: Allocation category for frames owned by a :class:`SharedFrameTable`.
SHARED_CATEGORY = "snapshot_shared"

#: Content-identity granularity: duplicate regions are chunked into
#: fixed-size runs so every occurrence of a content class has an
#: identical frame count (a merge is only valid between equal-sized
#: copies).  8 pages = 32 KiB, about the run length of the compiled
#: stdlib blobs cross-snapshot dedup studies report.
DEDUP_CHUNK_PAGES = 8

#: Fraction of a function snapshot's pages that are byte-identical
#: across snapshots of the same scope (compiled stdlib, interpreter
#: heap shapes, module tables).  Smaller than KSM's 0.62 whole-container
#: figure: snapshot diffs already exclude the shared base image.
DEFAULT_SNAPSHOT_DUPLICATE_FRACTION = 0.55

#: Retroactive scanner defaults (shared with the KSM adapter).
DEFAULT_SCAN_RATE_PAGES_PER_S = 25_000
SCAN_INTERVAL_MS = 200.0

#: Merge scopes, from most to least confined.
SCOPE_LINEAGE = "lineage"  # a function's own lineage only (SEUSS §5)
SCOPE_TENANT = "tenant"  # across one tenant's functions (safe)
SCOPE_GLOBAL = "global"  # across tenants (the KSM side channel)
SCOPES = (SCOPE_LINEAGE, SCOPE_TENANT, SCOPE_GLOBAL)


# -- the content-identity model ---------------------------------------------


def content_namespace(
    scope: str, fn_key: str, runtime: str
) -> str:
    """The merge namespace a function snapshot's duplicate pages share.

    Two snapshots can only merge when their namespaces are equal, so the
    namespace *is* the sharing policy:

    * ``lineage`` — ``lineage:<fn-key>``: only snapshots of the same
      function merge (replicas, recaptures) — SEUSS's own confinement.
    * ``tenant`` — ``tenant:<owner>:<runtime>``: all of one tenant's
      functions on one runtime merge; no cross-tenant channel.
    * ``global`` — ``global:<runtime>``: content-based merging across
      tenants, the KSM regime :func:`repro.seuss.security.audit_dedup`
      flags.
    """
    if scope == SCOPE_LINEAGE:
        return f"lineage:{fn_key}"
    if scope == SCOPE_TENANT:
        owner = fn_key.split("/", 1)[0] if "/" in fn_key else "default"
        return f"tenant:{owner}:{runtime}"
    if scope == SCOPE_GLOBAL:
        return f"global:{runtime}"
    raise ConfigError(f"unknown dedup scope {scope!r} (want one of {SCOPES})")


def chunk_content_ids(
    namespace: str,
    page_count: int,
    duplicate_fraction: float,
    chunk_pages: int = DEDUP_CHUNK_PAGES,
) -> List[Tuple[str, int]]:
    """Stamp a snapshot's duplicate region with content classes.

    Deterministic and seed-stable: a snapshot of ``page_count`` pages
    has ``int(page_count * duplicate_fraction)`` duplicate-content
    pages, chunked from offset zero into ``chunk_pages``-sized classes
    named ``<namespace>:<start>-<stop>``.  Two snapshots in the same
    namespace therefore share their common prefix of chunks even when
    their sizes differ.  The partial tail chunk (and everything past
    the duplicate region) stays private — merges only happen between
    whole, equal-sized chunks.
    """
    if not 0.0 <= duplicate_fraction < 1.0:
        raise ConfigError(
            f"duplicate_fraction {duplicate_fraction} not in [0, 1)"
        )
    if chunk_pages < 1:
        raise ConfigError(f"chunk_pages must be >= 1, got {chunk_pages}")
    duplicate_pages = int(page_count * duplicate_fraction)
    out = []
    for start in range(0, duplicate_pages - chunk_pages + 1, chunk_pages):
        out.append((f"{namespace}:{start}-{start + chunk_pages}", chunk_pages))
    return out


# -- the refcounted shared frame table ---------------------------------------


@dataclass
class _SharedEntry:
    pages: int
    refs: int


@dataclass
class SharedFrameTableStats:
    merged_pages: int = 0  # frame allocations avoided or reclaimed
    unmerged_pages: int = 0  # CoW breaks: shared chunks re-privatized

    @property
    def merged_mb(self) -> float:
        return pages_to_mb(self.merged_pages)


class SharedFrameTable:
    """Refcounted content-addressed frames over a FrameAllocator.

    The first holder of a content id allocates its frames (under
    :data:`SHARED_CATEGORY`); later holders bump a refcount and allocate
    nothing.  Frames return to the pool only when the last holder
    releases.  Invariants (checked by ``tests/test_dedup_model.py``):

    * ``allocator.category_pages(SHARED_CATEGORY) == shared_pages``
      (the table owns exactly its entries' frames);
    * ``saved_pages == sum(pages * (refs - 1))`` over live entries;
    * refcounts never go negative and entries vanish at zero.
    """

    def __init__(self, allocator, category: str = SHARED_CATEGORY) -> None:
        self._allocator = allocator
        self.category = category
        self._entries: Dict[str, _SharedEntry] = {}
        self.stats = SharedFrameTableStats()

    # -- introspection ---------------------------------------------------
    def __contains__(self, content_id: str) -> bool:
        return content_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def refcount(self, content_id: str) -> int:
        entry = self._entries.get(content_id)
        return entry.refs if entry is not None else 0

    def chunk_pages(self, content_id: str) -> int:
        entry = self._entries.get(content_id)
        return entry.pages if entry is not None else 0

    @property
    def shared_pages(self) -> int:
        """Physical frames the table currently owns."""
        return sum(entry.pages for entry in self._entries.values())

    @property
    def saved_pages(self) -> int:
        """Frames sharing is currently avoiding (vs. unshared copies)."""
        return sum(
            entry.pages * (entry.refs - 1) for entry in self._entries.values()
        )

    # -- capture-time merge path ----------------------------------------
    def retain(self, content_id: str, pages: int) -> int:
        """Hold one reference on a content class.

        Returns the pages *newly allocated*: ``pages`` for the first
        holder, 0 for everyone after (their copy merges for free).
        """
        if pages < 1:
            raise ValueError(f"content chunk must have pages >= 1, got {pages}")
        entry = self._entries.get(content_id)
        if entry is not None:
            if entry.pages != pages:
                raise ValueError(
                    f"content id {content_id!r} holds {entry.pages} pages, "
                    f"cannot retain as {pages}"
                )
            entry.refs += 1
            self.stats.merged_pages += pages
            return 0
        self._allocator.allocate(pages, self.category)
        self._entries[content_id] = _SharedEntry(pages=pages, refs=1)
        return pages

    def release(self, content_id: str) -> int:
        """Drop one reference; returns pages freed (0 unless last)."""
        entry = self._entries.get(content_id)
        if entry is None:
            raise KeyError(f"release of unknown content id {content_id!r}")
        entry.refs -= 1
        if entry.refs > 0:
            return 0
        del self._entries[content_id]
        self._allocator.free(entry.pages, self.category)
        return entry.pages

    # -- retroactive merge / CoW un-merge paths -------------------------
    def merge(self, content_id: str, pages: int, from_category: str) -> bool:
        """Retroactively fold an existing private copy into the table.

        The caller owns ``pages`` frames under ``from_category`` whose
        content was found identical to ``content_id``.  If the class is
        already resident the duplicate frames are freed and a reference
        taken (returns ``True`` — pages were reclaimed); otherwise the
        caller's copy is *adopted* as the shared one (accounting moves
        to the table's category, returns ``False`` — nothing freed yet,
        but the next occurrence merges).
        """
        if pages < 1:
            raise ValueError(f"content chunk must have pages >= 1, got {pages}")
        entry = self._entries.get(content_id)
        if entry is not None:
            if entry.pages != pages:
                raise ValueError(
                    f"content id {content_id!r} holds {entry.pages} pages, "
                    f"cannot merge {pages}"
                )
            self._allocator.free(pages, from_category)
            entry.refs += 1
            self.stats.merged_pages += pages
            return True
        self._allocator.free(pages, from_category)
        self._allocator.allocate(pages, self.category)
        self._entries[content_id] = _SharedEntry(pages=pages, refs=1)
        return False

    def unmerge(self, content_id: str, to_category: str) -> int:
        """Break sharing on a write (CoW): re-privatize one holder's copy.

        The writing holder gets a fresh private copy under
        ``to_category`` and drops its reference (freeing the shared
        frames if it was the last).  Returns the pages privatized.
        """
        entry = self._entries.get(content_id)
        if entry is None:
            raise KeyError(f"unmerge of unknown content id {content_id!r}")
        pages = entry.pages
        self._allocator.allocate(pages, to_category)
        self.release(content_id)
        self.stats.unmerged_pages += pages
        tracer = tracer_for(self._allocator.env)
        if tracer.enabled:
            tracer.counter("dedup.unmerge", pages)
        return pages


# -- the retroactive scanner -------------------------------------------------


@dataclass
class ScanStats:
    """Scanner accounting."""

    scans: int = 0
    merged_pages: int = 0
    unmerged_pages: int = 0
    #: Scanner CPU time charged on the sim clock (the cost of finding
    #: the duplicates KSM-style merging needs).
    scan_ms: float = 0.0

    @property
    def merged_mb(self) -> float:
        return pages_to_mb(self.merged_pages)


class PageScanner:
    """Retroactive page dedup over one allocation category.

    Also the model of Linux KSM (over the ``container`` category with
    :data:`repro.linuxnode.ksm.DEFAULT_DUPLICATE_FRACTION`): a
    background daemon scans a memory category at
    ``scan_rate_pages_per_s``, merging duplicate pages up to the
    ``duplicate_fraction`` actually present.  Sharing arrives over
    *time*, behind demand — the §5 contrast with capture-time dedup —
    and the scan itself costs CPU, accrued in ``stats.scan_ms``.
    """

    #: The defining (and security-relevant) property the §5 audit keys on.
    retroactive_sharing = True

    def __init__(
        self,
        env,
        allocator,
        duplicate_fraction: float,
        scan_rate_pages_per_s: float = DEFAULT_SCAN_RATE_PAGES_PER_S,
        category: str = "anonymous",
    ) -> None:
        if not 0.0 <= duplicate_fraction < 1.0:
            raise ConfigError(
                f"duplicate_fraction {duplicate_fraction} not in [0,1)"
            )
        if scan_rate_pages_per_s <= 0:
            raise ConfigError("scan_rate_pages_per_s must be positive")
        self.env = env
        self.allocator = allocator
        self.duplicate_fraction = duplicate_fraction
        self.scan_rate_pages_per_s = scan_rate_pages_per_s
        self.category = category
        self.stats = ScanStats()
        self._running = False
        #: Loop-generation token: every ``start`` mints a new generation
        #: and any parked loop from an older one exits on wake instead
        #: of running alongside the new loop (the stop/start double-loop
        #: bug — two live loops doubled the effective scan rate).
        self._generation = 0

    # -- the merge arithmetic -------------------------------------------
    def mergeable_pages(self) -> int:
        """Duplicate pages currently resident and not yet merged.

        Resident category pages exclude already-merged ones (merging
        freed them), so the duplicate pool is computed against the
        *original* footprint: resident + merged.
        """
        resident = self.allocator.category_pages(self.category)
        original = resident + self.stats.merged_pages
        duplicates = int(original * self.duplicate_fraction)
        return max(0, duplicates - self.stats.merged_pages)

    def merge(self, limit: int) -> int:
        """Merge up to ``limit`` duplicate pages; returns pages freed."""
        to_merge = min(limit, self.mergeable_pages())
        if to_merge <= 0:
            return 0
        self.allocator.free(to_merge, self.category)
        self.stats.merged_pages += to_merge
        tracer = tracer_for(self.env)
        if tracer.enabled:
            tracer.counter("dedup.merged_pages", to_merge)
        return to_merge

    def unmerge(self, pages: int) -> None:
        """Account for merged pages whose owners were destroyed."""
        self.stats.merged_pages = max(0, self.stats.merged_pages - pages)

    def cow_break(self, pages: int) -> int:
        """Un-merge on write: a holder dirtied merged pages.

        The write forces private copies, so the frames are re-allocated
        to the scanned category and leave the merged pool.  Returns the
        pages actually un-merged (bounded by what is merged).
        """
        broken = min(pages, self.stats.merged_pages)
        if broken <= 0:
            return 0
        self.allocator.allocate(broken, self.category)
        self.stats.merged_pages -= broken
        self.stats.unmerged_pages += broken
        tracer = tracer_for(self.env)
        if tracer.enabled:
            tracer.counter("dedup.unmerge", broken)
        return broken

    # -- the daemon ------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._generation += 1
        self.env.process(self._scan_loop(self._generation))

    def stop(self) -> None:
        self._running = False

    def _scan_loop(self, generation: int) -> Generator:
        per_interval = int(
            self.scan_rate_pages_per_s * SCAN_INTERVAL_MS / 1000.0
        )
        while self._running and generation == self._generation:
            yield self.env.timeout(SCAN_INTERVAL_MS)
            if not self._running or generation != self._generation:
                # Stopped (or restarted) while parked on the timeout:
                # exit without scanning so a successor loop owns the
                # rate alone.
                return
            self.stats.scans += 1
            scanned = min(
                per_interval,
                self.allocator.category_pages(self.category)
                + self.stats.merged_pages,
            )
            if scanned > 0:
                # The scan-rate cost model: walking ``scanned`` pages at
                # ``scan_rate_pages_per_s`` burns this much CPU on the
                # sim clock (the daemon runs *during* the interval it
                # just slept through; the charge is accounting, not an
                # extra delay, matching ksmd's background niceness).
                cost_ms = scanned / self.scan_rate_pages_per_s * 1000.0
                self.stats.scan_ms += cost_ms
                tracer = tracer_for(self.env)
                if tracer.enabled:
                    tracer.counter("dedup.scan_ms", cost_ms)
            self.merge(per_interval)

    def effective_density_gain(self) -> float:
        """How much denser merged instances sit vs. unmerged ones."""
        resident = self.allocator.category_pages(self.category)
        original = resident + self.stats.merged_pages
        if resident == 0:
            return 1.0
        return original / resident


# -- the per-node dedup domain -----------------------------------------------


@dataclass(frozen=True)
class DedupConfig:
    """Policy knobs for one node's dedup domain (all default off)."""

    #: Capture-time merging through the SharedFrameTable.
    capture: bool = False
    #: Merge scope: lineage | tenant | global.
    scope: str = SCOPE_TENANT
    #: Duplicate-content fraction of a snapshot's pages.
    duplicate_fraction: float = DEFAULT_SNAPSHOT_DUPLICATE_FRACTION
    #: Content-class granularity.
    chunk_pages: int = DEDUP_CHUNK_PAGES
    #: Retroactive scanner over the snapshot category.
    scanner: bool = False
    scan_rate_pages_per_s: float = DEFAULT_SCAN_RATE_PAGES_PER_S

    def __post_init__(self) -> None:
        if self.scope not in SCOPES:
            raise ConfigError(
                f"dedup scope {self.scope!r} not one of {SCOPES}"
            )
        if not 0.0 <= self.duplicate_fraction < 1.0:
            raise ConfigError(
                f"duplicate_fraction {self.duplicate_fraction} not in [0,1)"
            )
        if self.chunk_pages < 1:
            raise ConfigError("chunk_pages must be >= 1")
        if self.scan_rate_pages_per_s <= 0:
            raise ConfigError("scan_rate_pages_per_s must be positive")


class DedupDomain:
    """One node's dedup subsystem: policy + frame table + scanner.

    A :class:`~repro.seuss.node.SeussNode` whose config enables
    ``page_dedup`` or ``dedup_scanner`` owns exactly one domain;
    snapshots captured on the node carry a reference and route their
    duplicate-region allocations through :attr:`table`.
    """

    def __init__(
        self,
        allocator,
        config: Optional[DedupConfig] = None,
        env=None,
        scan_category: str = "snapshot",
    ) -> None:
        self.config = config or DedupConfig()
        self.allocator = allocator
        self.table = SharedFrameTable(allocator)
        self.scanner: Optional[PageScanner] = None
        if self.config.scanner:
            if env is None:
                raise ConfigError("dedup scanner requires an environment")
            self.scanner = PageScanner(
                env,
                allocator,
                duplicate_fraction=self.config.duplicate_fraction,
                scan_rate_pages_per_s=self.config.scan_rate_pages_per_s,
                category=scan_category,
            )

    # -- policy ----------------------------------------------------------
    @property
    def capture_enabled(self) -> bool:
        return self.config.capture

    def namespace(self, fn_key: str, runtime: str) -> Optional[str]:
        """The content namespace for a function's snapshots (or None
        when capture-time dedup is off)."""
        if not self.config.capture:
            return None
        return content_namespace(self.config.scope, fn_key, runtime)

    # -- capture-time merge ---------------------------------------------
    def capture_chunks(
        self, namespace: str, page_count: int
    ) -> Tuple[List[str], int, int]:
        """Route a snapshot's duplicate region through the frame table.

        Returns ``(chunk_ids, shared_pages, allocated_pages)`` where
        ``shared_pages`` is the region's total size and
        ``allocated_pages`` how much of it actually claimed frames
        (first-holder chunks only); the difference merged for free.
        """
        chunks = chunk_content_ids(
            namespace,
            page_count,
            self.config.duplicate_fraction,
            self.config.chunk_pages,
        )
        chunk_ids: List[str] = []
        shared = 0
        allocated = 0
        for content_id, pages in chunks:
            allocated += self.table.retain(content_id, pages)
            shared += pages
            chunk_ids.append(content_id)
        merged = shared - allocated
        if merged:
            tracer = tracer_for(self.allocator.env)
            if tracer.enabled:
                tracer.counter("dedup.merged_pages", merged)
        return chunk_ids, shared, allocated

    def release_chunks(self, chunk_ids: Sequence[str]) -> int:
        """Drop a snapshot's chunk references; returns pages freed."""
        freed = 0
        for content_id in chunk_ids:
            freed += self.table.release(content_id)
        return freed

    def resident_fraction(self, namespace: str, page_count: int) -> float:
        """Fraction of a snapshot's pages already resident in this
        domain's frame table — the part of a cross-node transfer that
        needs no wire bytes (the destination merges them on arrival)."""
        if page_count <= 0:
            return 0.0
        chunks = chunk_content_ids(
            namespace,
            page_count,
            self.config.duplicate_fraction,
            self.config.chunk_pages,
        )
        resident = sum(
            pages for content_id, pages in chunks if content_id in self.table
        )
        return resident / page_count

    # -- scanner plumbing -----------------------------------------------
    def start_scanner(self) -> None:
        if self.scanner is not None:
            self.scanner.start()

    def stop_scanner(self) -> None:
        if self.scanner is not None:
            self.scanner.stop()

    def before_snapshot_free(self, pages: int) -> None:
        """Keep the scanner's merged pool consistent with a teardown.

        A deleted snapshot frees its category pages; if the scanner has
        merged so many that the category holds fewer than the teardown
        needs, the shortfall is un-merged first (the owner of merged
        pages is going away — the same accounting as
        :meth:`PageScanner.unmerge`, but re-allocating because the
        deleting snapshot is about to free them).
        """
        if self.scanner is None:
            return
        held = self.allocator.category_pages(self.scanner.category)
        if pages > held:
            self.scanner.cow_break(pages - held)

    # -- reporting -------------------------------------------------------
    @property
    def merged_pages(self) -> int:
        """Total pages deduplicated: the frame table's merges (capture
        time) plus the scanner's (retroactive)."""
        merged = self.table.stats.merged_pages
        if self.scanner is not None:
            merged += self.scanner.stats.merged_pages
        return merged

    @property
    def unmerged_pages(self) -> int:
        unmerged = self.table.stats.unmerged_pages
        if self.scanner is not None:
            unmerged += self.scanner.stats.unmerged_pages
        return unmerged

    @property
    def scan_ms(self) -> float:
        return self.scanner.stats.scan_ms if self.scanner is not None else 0.0

    @property
    def saved_pages(self) -> int:
        return self.table.saved_pages

    @property
    def saved_mb(self) -> float:
        return pages_to_mb(self.saved_pages)
