"""The function-snapshot cache.

SEUSS "maintains a cache of snapshots as well as a cache of idle UCs"
(§4).  This module is the former: function key → function snapshot,
bounded by a memory budget, evicting in the order of its
:class:`~repro.seuss.policy.CachePolicy` (LRU, the paper's rule, by
default).

Eviction respects snapshot-stack lifetime rules: "we address this
concern in our prototype by only deleting function-specific snapshots
that have no active UCs" (§6).  A snapshot whose refcount shows live
dependents is skipped; the cache asks its ``drop_idle`` callback to
destroy idle UCs first, which releases their references.

The budget is charged by one law, the one
:func:`repro.seuss.audit.audit_node` checks: each entry's private pages
(its footprint less the pages it routes through a dedup frame table),
plus each shared chunk once while any entry holds it.  Without page
dedup an entry is charged its footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.mem.snapshot import Snapshot
from repro.seuss.policy import CachePolicy, LRUPolicy
from repro.trace import tracer_for
from repro.units import mb_to_pages, pages_to_mb


@dataclass
class SnapshotCacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    eviction_failures: int = 0
    quarantined: int = 0


class SnapshotCache:
    """Function-specific snapshots, bounded by memory.

    Victims come from the cache's policy (an :class:`LRUPolicy` unless
    one is passed), which tracks exactly the keys the cache holds.
    """

    def __init__(
        self,
        budget_mb: float,
        drop_idle: Optional[Callable[[str], int]] = None,
        policy: Optional[CachePolicy] = None,
        env=None,
    ) -> None:
        #: The node's environment, whose tracer records this cache
        #: (``None``: the active tracer).
        self.env = env
        self._budget_pages = mb_to_pages(budget_mb)
        self._entries: Dict[str, Snapshot] = {}
        self._held_pages = 0
        #: Shared dedup chunk id -> how many entries hold it.
        self._chunk_holders: Dict[str, int] = {}
        self._policy: CachePolicy = policy or LRUPolicy()
        #: Callback that destroys all idle UCs of a function (returns
        #: how many were destroyed), releasing snapshot references so
        #: eviction can proceed.
        self._drop_idle = drop_idle or (lambda key: 0)
        self.stats = SnapshotCacheStats()

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def held_mb(self) -> float:
        return pages_to_mb(self._held_pages)

    @property
    def budget_mb(self) -> float:
        return pages_to_mb(self._budget_pages)

    def capacity_estimate(self, snapshot_footprint_pages: int) -> int:
        """How many snapshots of a given footprint fit in the budget."""
        if snapshot_footprint_pages <= 0:
            raise ValueError("snapshot footprint must be positive")
        return self._budget_pages // snapshot_footprint_pages

    def peek(self, key: str) -> Optional[Snapshot]:
        """The snapshot cached under ``key``, or ``None``, read without
        a deploy: no hit or miss is counted, the policy is not told and
        nothing is traced.  For pricing and shipping a snapshot."""
        return self._entries.get(key)

    # -- cache operations ---------------------------------------------------
    def get(self, key: str) -> Optional[Snapshot]:
        """The snapshot to deploy ``key`` from: counts a hit (and tells
        the policy) or a miss."""
        snapshot = self._entries.get(key)
        if snapshot is None:
            self.stats.misses += 1
            tracer = tracer_for(self.env)
            if tracer.enabled:
                tracer.event("snapshot_cache.miss", key=key)
            return None
        self._policy.on_hit(key)
        self.stats.hits += 1
        tracer = tracer_for(self.env)
        if tracer.enabled:
            tracer.event("snapshot_cache.hit", key=key)
        return snapshot

    def put(self, key: str, snapshot: Snapshot) -> bool:
        """Insert a snapshot, evicting the policy's victims to fit the budget.

        Returns ``False`` when an entry for ``key`` already exists (a
        concurrent cold path won the insertion race); the caller should
        :meth:`~repro.mem.snapshot.Snapshot.mark_orphan` its duplicate.
        """
        if key in self._entries:
            return False
        # Charged before the room is made, so evicting an entry that
        # shares chunks with it leaves those chunks charged.
        charged = self._charge(snapshot)
        self._make_room()
        snapshot.retain()
        self._entries[key] = snapshot
        self._policy.on_insert(key, size_mb=pages_to_mb(charged))
        tracer = tracer_for(self.env)
        if tracer.enabled:
            tracer.event("snapshot_cache.insert", key=key, pages=charged)
            tracer.gauge("snapshot_cache.held_mb", self.held_mb)
        return True

    def _charge(self, snapshot: Snapshot) -> int:
        """Add an entry to the held pages: its private pages, plus each
        shared chunk no entry held yet.  Returns the pages charged."""
        pages = snapshot.footprint_pages - snapshot.shared_pages
        holders = self._chunk_holders
        for chunk in snapshot._chunk_ids:
            count = holders.get(chunk, 0)
            if not count:
                pages += snapshot._dedup.table.chunk_pages(chunk)
            holders[chunk] = count + 1
        self._held_pages += pages
        return pages

    def _uncharge(self, snapshot: Snapshot) -> int:
        """Take a leaving entry off the held pages: its private pages,
        plus each shared chunk no other entry holds.  Returns the pages
        uncharged."""
        pages = snapshot.footprint_pages - snapshot.shared_pages
        holders = self._chunk_holders
        for chunk in snapshot._chunk_ids:
            count = holders.pop(chunk) - 1
            if count:
                holders[chunk] = count
            else:
                pages += snapshot._dedup.table.chunk_pages(chunk)
        self._held_pages -= pages
        return pages

    def _make_room(self) -> None:
        attempts = len(self._entries)
        while (
            self._held_pages > self._budget_pages
            and self._entries
            and attempts > 0
        ):
            attempts -= 1
            key = self._policy.victim()
            if not self._evict(key):
                # Could not delete (live dependents survived drop_idle);
                # deprioritize it and try the next victim.
                self._policy.requeue(key)
                self.stats.eviction_failures += 1

    def _evict(self, key: str) -> bool:
        snapshot = self._entries[key]
        # Destroy idle UCs deployed from this snapshot so only our own
        # reference remains.
        self._drop_idle(key)
        if snapshot.refcount > 1:
            return False  # a live invocation still depends on it
        del self._entries[key]
        self._policy.on_remove(key)
        uncharged = self._uncharge(snapshot)
        snapshot.release()
        snapshot.delete()
        self.stats.evictions += 1
        tracer = tracer_for(self.env)
        if tracer.enabled:
            tracer.event("snapshot_cache.evict", key=key, pages=uncharged)
            tracer.gauge("snapshot_cache.held_mb", self.held_mb)
        return True

    def quarantine(self, key: str) -> bool:
        """Pull a corrupted snapshot out of service immediately.

        Unlike eviction, quarantine cannot be refused: the entry is
        removed from the cache even while in-flight UCs still depend on
        the snapshot (they already resolved their pages; only *new*
        deployments are at risk).  Idle UCs deployed from it are
        destroyed as suspect, and the snapshot's frames are reclaimed as
        soon as the last dependent drops.  The next invocation of the
        function misses the cache and rebuilds cold — the SEUSS
        recovery story: a bad snapshot costs one cold start.
        """
        snapshot = self._entries.pop(key, None)
        if snapshot is None:
            return False
        # Quarantine is not an eviction decision; keep policy eviction
        # counts clean.
        self._policy.on_remove(key, evicted=False)
        self._uncharge(snapshot)
        self.stats.quarantined += 1
        tracer = tracer_for(self.env)
        if tracer.enabled:
            tracer.event("snapshot_cache.quarantine", key=key)
        self._drop_idle(key)
        snapshot.release()
        if not snapshot.deleted:
            # Live dependents remain: reap once the last one drops.
            snapshot.mark_orphan()
        return True

    def evict_key(self, key: str) -> bool:
        """Explicitly evict one function's snapshot (if present)."""
        if key not in self._entries:
            return False
        return self._evict(key)

    def clear(self) -> None:
        for key in list(self._entries):
            self._evict(key)

    @property
    def hit_rate(self) -> float:
        total = self.stats.hits + self.stats.misses
        return self.stats.hits / total if total else 0.0
