"""x86-64 paging-structure accounting and page-event tracing hooks.

SEUSS OS captures "the complete page table structure" with every
snapshot and shallow-copies it on every deploy (§6).  Both snapshots and
address spaces therefore carry a small paging-structure overhead in
addition to their data pages; this module centralizes that arithmetic.

It is also the memory substrate's funnel into :mod:`repro.trace`: COW
fault servicing and page-table construction report here, with the
environment of the node whose memory it is, and the hooks forward them
as counter events to that environment's tracer.  With tracing off a
hook records nothing.
"""

from __future__ import annotations

from repro.trace import tracer_for

#: One 4 KiB page-table page holds 512 PTEs (maps 2 MiB).
PTES_PER_PAGE = 512

#: Fixed upper-level structures: PML4 + PDPT + PD.
PAGE_TABLE_ROOT_PAGES = 3

#: Counter names the hooks emit (cumulative across the traced run).
COUNTER_PAGES_COPIED = "mem.pages_copied"
COUNTER_COW_FAULTS = "mem.cow_faults"
COUNTER_PAGE_TABLE_PAGES = "mem.page_table_pages_built"
COUNTER_PAGES_PREFETCHED = "mem.pages_prefetched"
COUNTER_PREFETCH_BATCHES = "mem.prefetch_batches"


def page_table_pages_for(mapped_pages: int) -> int:
    """Pages of paging structures needed to map ``mapped_pages`` pages."""
    if mapped_pages < 0:
        raise ValueError(f"negative mapped_pages {mapped_pages}")
    if mapped_pages == 0:
        return PAGE_TABLE_ROOT_PAGES
    leaves = -(-mapped_pages // PTES_PER_PAGE)  # ceil division
    return PAGE_TABLE_ROOT_PAGES + leaves


def record_page_faults(env, pages_copied: int, extents: int) -> None:
    """Trace hook: ``extents`` COW faults copied ``pages_copied`` pages."""
    tracer = tracer_for(env)
    if tracer.enabled and pages_copied:
        tracer.counter(COUNTER_PAGES_COPIED, pages_copied)
        tracer.counter(COUNTER_COW_FAULTS, extents)


def record_page_table_build(env, pages: int) -> None:
    """Trace hook: ``pages`` pages of paging structures were built."""
    tracer = tracer_for(env)
    if tracer.enabled and pages:
        tracer.counter(COUNTER_PAGE_TABLE_PAGES, pages)


def record_page_prefetch(env, pages: int) -> None:
    """Trace hook: one batched resolution installed ``pages`` pages.

    Prefetched pages are deliberately *not* folded into
    ``mem.pages_copied`` — that counter keeps meaning "pages copied by
    demand faults", so lazy-vs-prefetch comparisons read directly off
    the two counters.
    """
    tracer = tracer_for(env)
    if tracer.enabled and pages:
        tracer.counter(COUNTER_PAGES_PREFETCHED, pages)
        tracer.counter(COUNTER_PREFETCH_BATCHES, 1)
