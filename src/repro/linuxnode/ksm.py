"""Kernel Samepage Merging (KSM) — the retroactive-dedup contrast.

The paper contrasts SEUSS's sharing with KSM twice: KSM can recover
container memory by scanning for identical pages and merging them, but
(a) the sharing is established *retroactively* at a bounded scan rate,
so density improves slowly and behind demand, and (b) content-based
merging across tenants is a known deduplication side channel, which
SEUSS avoids because its sharing is established at snapshot time and
confined to a function's own lineage (§5).

KSM is modelled by the shared retroactive scanner,
:class:`~repro.mem.dedup.PageScanner`, over the Linux node's
``container`` memory category at ksmd's conservative default scan rate
(:data:`~repro.mem.dedup.DEFAULT_SCAN_RATE_PAGES_PER_S`).  This module
holds the KSM-specific default.
"""

#: Fraction of per-container memory that is byte-identical across
#: instances of the same image (interpreter text, stdlib, base layers).
DEFAULT_DUPLICATE_FRACTION = 0.62
