"""Calendar (bucket) event queue tuned for FaaS timescales.

The engine's schedule is dominated by two populations: *immediate*
events (``delay == 0`` cascades — process resumes, succeeded events,
interrupts) and *near-future* timeouts clustered within a few hundred
milliseconds of the clock, with a thin tail of far-future outliers
(idle-reap timers, experiment horizons).  A binary heap pays O(log n)
per operation on all of them; at fleet scale (10^5-10^6 pending events)
the heap's constant also degrades as the backing array falls out of
cache.  A calendar queue [Brown 1988] instead spreads events over an
array of fixed-width time buckets: insert is an O(1) append, and pops
walk the current bucket in sorted order.

:class:`CalendarQueue` keeps entries in five regions, popped by
comparing region heads (entries are ``(time, priority, eid, event)``
tuples, so tuple comparison reproduces the heap's total order exactly):

``_urgent``
    delay-0 entries with ``URGENT`` priority, a FIFO deque.  Urgent
    entries are only ever scheduled *at* the current instant, which
    makes the head of this deque the global minimum whenever it is
    non-empty (minimal time, minimal priority, FIFO eid) — the fastest
    pop path in the structure.
``_immediate``
    delay-0 entries with ``NORMAL`` priority, also FIFO.  These tie
    with bucket/near entries at the same instant, so they are merged by
    eid comparison rather than popped blindly.
``_near``
    a small binary heap for entries that land at or before the end of
    the *active* bucket (the bucket the clock currently sits in).  The
    active bucket is already sorted, so late arrivals cannot be
    appended to it; routing them through a heap keeps insert O(log k)
    for a k that is almost always tiny.
``_buckets``
    the calendar proper: ``nbuckets`` lists, bucket ``i`` covering
    ``[base + i*width, base + (i+1)*width)``.  Inserts append
    unsorted; a bucket is sorted once, when the clock enters it.
``_overflow``
    a binary heap for entries beyond the calendar horizon
    (``base + nbuckets*width``).  When the calendar wraps past its last
    bucket it *rebases*: the horizon advances one full calendar span
    (jumping straight to the overflow head when the gap is idle) and
    overflow entries inside the new span are dealt into buckets.

Occupancy drift is handled by :meth:`_resize`: the bucket count tracks
the pending population (doubling above ~2 entries/bucket, halving far
below), and the bucket width is re-derived from the observed spread of
pending event times so that both dense same-tick bursts and sparse
long-horizon schedules keep near-O(1) behaviour.  Resizes are O(n) but
amortized by the doubling/halving thresholds.

The structure is engine-agnostic and fully deterministic: no RNG, no
wall clock, and a pop order bit-identical to ``heapq`` over the same
entries (``tests/test_calendar_queue.py`` holds the heap reference
oracle the model tests compare against).
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush, merge
from typing import Iterable, List, Optional, Tuple

#: Entry tuples are ``(time, priority, eid, event)`` — identical to the
#: tuples the historical heap implementation stored, so comparisons
#: (and therefore pop order) are identical too.
Entry = Tuple[float, int, int, object]

#: Bucket-count bounds.  256 buckets cost ~2 KB idle; the ceiling stops
#: a million-event burst from allocating a pathological array.
MIN_BUCKETS = 256
MAX_BUCKETS = 1 << 17

#: Resize the calendar up when pending entries exceed
#: ``GROW_FACTOR * nbuckets`` and down below ``nbuckets // SHRINK_DIV``.
GROW_FACTOR = 2
SHRINK_DIV = 8

#: Target mean bucket occupancy the width estimator aims for.  Bucket
#: transitions (cursor advance + activation sort) cost noticeably more
#: than in-bucket pops, so the sweet spot sits well above the classic
#: 1-2 entries/bucket: at ~16 the activation sort is still trivial
#: (Timsort over a handful of sorted runs) while the advance machinery
#: runs 8× less often — worth ~10% fleet throughput over occupancy 2.
TARGET_OCCUPANCY = 16.0

#: Widen the calendar when pops scan more than this many empty buckets
#: per popped event (width drifted too small for the schedule).
MAX_SCAN_RATIO = 8.0


class CalendarQueue:
    """Min-queue over ``(time, priority, eid, event)`` entries.

    ``now`` must be passed to :meth:`push` (the engine's clock); entries
    never carry a time earlier than the clock.
    """

    __slots__ = (
        "_width",
        "_nbuckets",
        "_buckets",
        "_active",
        "_active_end",
        "_base",
        "_near",
        "_overflow",
        "_urgent",
        "_immediate",
        "_bi",
        "_size",
        "_scanned",
        "_popped",
    )

    def __init__(
        self,
        start: float = 0.0,
        width: float = 1.0,
        nbuckets: int = MIN_BUCKETS,
    ) -> None:
        if width <= 0.0:
            raise ValueError(f"width must be positive, got {width}")
        if nbuckets < 1:
            raise ValueError(f"nbuckets must be >= 1, got {nbuckets}")
        self._width = float(width)
        self._nbuckets = nbuckets
        self._buckets: List[List[Entry]] = [[] for _ in range(nbuckets)]
        self._base = float(start)
        self._active = 0
        self._active_end = self._base + self._width
        self._near: List[Entry] = []
        self._overflow: List[Entry] = []
        self._urgent: deque = deque()
        self._immediate: deque = deque()
        #: Read index into the (sorted) active bucket.
        self._bi = 0
        self._size = 0
        #: Empty-bucket scans vs pops since the last resize — the
        #: occupancy-drift signal that triggers re-deriving the width.
        self._scanned = 0
        self._popped = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    # -- insertion -----------------------------------------------------
    def push(self, entry: Entry, now: float) -> None:
        """Insert one entry; O(1) amortized."""
        t = entry[0]
        self._size += 1
        if t <= self._active_end:
            if t == now:
                # Delay-0 fast paths: the engine's dominant traffic.
                if entry[1]:
                    self._immediate.append(entry)
                else:
                    self._urgent.append(entry)
            else:
                heappush(self._near, entry)
            return
        idx = int((t - self._base) / self._width)
        if idx < self._nbuckets:
            self._buckets[idx].append(entry)
        else:
            heappush(self._overflow, entry)
        if self._size > GROW_FACTOR * self._nbuckets and (
            self._nbuckets < MAX_BUCKETS
        ):
            self._resize(now)

    def push_sorted(self, entries: Iterable[Entry], now: float) -> None:
        """Bulk-insert entries pre-sorted by ``(time, priority, eid)``.

        One pass: consecutive entries falling into the same bucket are
        appended together, and the far-future tail — once one entry
        crosses the horizon, all later ones do too — is merged into the
        overflow heap with a single ``heapify``.  The amortized cost per
        entry is a fraction of an individual :meth:`push`.

        A batch big enough to breach the occupancy target triggers the
        resize *before* distribution: the existing population is drained
        and merged with the batch (both sorted, so an O(n) merge), and
        the combined sorted stream is dealt into a right-sized calendar
        in one pass — instead of distributing into a cramped table and
        immediately rebuilding it.
        """
        entries = list(entries)
        if not entries:
            return
        projected = self._size + len(entries)
        if projected > GROW_FACTOR * self._nbuckets and (
            self._nbuckets < MAX_BUCKETS
        ):
            existing = self._drain()
            if existing:
                existing.sort()
                entries = list(merge(existing, entries))
            self._rebuild(entries, now)
            return
        self._distribute_sorted(entries, now)

    def _distribute_sorted(self, entries: List[Entry], now: float) -> None:
        """Deal a sorted entry list into the regions (no resize check)."""
        run: List[Entry] = []
        run_idx = -1
        spill: List[Entry] = []
        near_spill: List[Entry] = []
        buckets = self._buckets
        nbuckets = self._nbuckets
        base = self._base
        width = self._width
        active_end = self._active_end
        for pos, entry in enumerate(entries):
            t = entry[0]
            if t <= active_end:
                if t == now:
                    if entry[1]:
                        self._immediate.append(entry)
                    else:
                        self._urgent.append(entry)
                else:
                    near_spill.append(entry)
                continue
            idx = int((t - base) / width)
            if idx >= nbuckets:
                # Sorted input: everything from here on overflows.
                spill = entries[pos:]
                break
            if idx != run_idx:
                if run:
                    buckets[run_idx].extend(run)
                run = [entry]
                run_idx = idx
            else:
                run.append(entry)
        if run:
            buckets[run_idx].extend(run)
        if near_spill:
            if self._near:
                self._near.extend(near_spill)
                heapify(self._near)
            else:
                # Pre-sorted input is already a valid heap.
                self._near = near_spill
        if spill:
            if self._overflow:
                self._overflow.extend(spill)
                heapify(self._overflow)
            else:
                self._overflow = spill
        self._size += len(entries)

    # -- removal -------------------------------------------------------
    def pop(self) -> Entry:
        """Remove and return the minimum entry; raises IndexError if empty."""
        while True:
            urgent = self._urgent
            if urgent:
                # Urgent entries are scheduled at the current instant
                # with the minimal priority: always the global minimum.
                self._size -= 1
                return urgent.popleft()
            immediate = self._immediate
            near = self._near
            bucket = self._buckets[self._active]
            bi = self._bi
            if immediate:
                best = immediate[0]
                if near and near[0] < best:
                    nbest = near[0]
                    if bi < len(bucket) and bucket[bi] < nbest:
                        self._bi = bi + 1
                        self._size -= 1
                        return bucket[bi]
                    self._size -= 1
                    return heappop(near)
                if bi < len(bucket) and bucket[bi] < best:
                    self._bi = bi + 1
                    self._size -= 1
                    return bucket[bi]
                self._size -= 1
                return immediate.popleft()
            if near:
                nbest = near[0]
                if bi < len(bucket) and bucket[bi] < nbest:
                    self._bi = bi + 1
                    self._size -= 1
                    return bucket[bi]
                self._size -= 1
                return heappop(near)
            if bi < len(bucket):
                self._bi = bi + 1
                self._size -= 1
                return bucket[bi]
            # Every region is empty up to the active bucket: rotate (a
            # resize inside _advance may refill any region, so loop).
            self._advance()

    def head(self) -> Optional[Entry]:
        """The minimum entry without removing it, or ``None`` if empty.

        May rotate the active-bucket cursor forward (and sort the bucket
        it lands on); that is invisible to pop order.
        """
        if self._urgent:
            return self._urgent[0]
        best: Optional[Entry] = None
        if self._immediate:
            best = self._immediate[0]
        if self._near and (best is None or self._near[0] < best):
            best = self._near[0]
        bucket = self._buckets[self._active]
        if self._bi < len(bucket) and (
            best is None or bucket[self._bi] < best
        ):
            best = bucket[self._bi]
        if best is not None:
            return best
        if self._size == 0:
            return None
        self._advance()
        return self.head()

    # -- rotation / resize --------------------------------------------
    def _advance(self) -> None:
        """Move the active cursor to the next non-empty bucket.

        Rebases (advances the calendar horizon and deals overflow
        entries in) when the cursor walks off the last bucket.  Only
        called when every earlier region is exhausted, so skipped
        buckets are provably empty of live entries.
        """
        if self._size == 0:
            raise IndexError("pop from an empty calendar queue")
        bucket = self._buckets[self._active]
        if self._bi:
            del bucket[:]
            self._bi = 0
        scanned = 0
        while True:
            self._active += 1
            if self._active >= self._nbuckets:
                self._rebase()
                continue
            bucket = self._buckets[self._active]
            if bucket:
                self._active_end = self._base + self._width * (
                    self._active + 1
                )
                bucket.sort()
                self._bi = 0
                break
            scanned += 1
        self._scanned += scanned
        self._popped += 1
        if (
            self._scanned > MAX_SCAN_RATIO * self._popped
            and self._scanned > self._nbuckets
        ):
            # Width drifted too small for this schedule: pops spend
            # more time walking empty buckets than delivering events.
            self._resize(self._base + self._width * self._active)

    def _rebase(self) -> None:
        """Advance the horizon one calendar span; deal overflow in."""
        overflow = self._overflow
        self._base += self._width * self._nbuckets
        if overflow and overflow[0][0] > self._base:
            # The span ahead is empty: jump straight to the overflow
            # head instead of rotating through idle calendar years.
            self._base = overflow[0][0]
        self._active = -1  # caller's loop increments to 0
        horizon = self._base + self._width * self._nbuckets
        buckets = self._buckets
        nbuckets = self._nbuckets
        base = self._base
        width = self._width
        while overflow and overflow[0][0] < horizon:
            entry = heappop(overflow)
            idx = int((entry[0] - base) / width)
            if idx >= nbuckets:
                idx = nbuckets - 1
            buckets[idx].append(entry)

    def _drain(self) -> List[Entry]:
        """Remove and return every entry (unsorted)."""
        entries: List[Entry] = list(self._urgent)
        entries.extend(self._immediate)
        entries.extend(self._near)
        entries.extend(self._overflow)
        bucket = self._buckets[self._active]
        entries.extend(bucket[self._bi :])
        for idx in range(self._active + 1, self._nbuckets):
            entries.extend(self._buckets[idx])
        self._urgent.clear()
        self._immediate.clear()
        self._near = []
        self._overflow = []
        return entries

    def _resize(self, now: float) -> None:
        """Rebuild the calendar for the current population."""
        entries = self._drain()
        entries.sort()
        self._rebuild(entries, now)

    def _rebuild(self, sorted_entries: List[Entry], now: float) -> None:
        """Reset the calendar around a fully sorted pending population.

        The bucket count tracks the pending-entry count (power-of-two
        steps within [MIN_BUCKETS, MAX_BUCKETS]) and the width is
        re-derived so the *span* of pending event times maps onto the
        bucket array at ~:data:`TARGET_OCCUPANCY` entries per bucket.
        Distribution is the bulk run-append pass, not per-entry pushes;
        sorted input also re-enters the delay-0 deques in exact
        ``(priority, eid)`` order.
        """
        population = len(sorted_entries)
        nbuckets = self._nbuckets
        while population > GROW_FACTOR * nbuckets and nbuckets < MAX_BUCKETS:
            nbuckets *= 2
        while population < nbuckets // SHRINK_DIV and nbuckets > MIN_BUCKETS:
            nbuckets //= 2
        width = self._estimate_width(sorted_entries, nbuckets)
        self._nbuckets = nbuckets
        self._width = width
        self._buckets = [[] for _ in range(nbuckets)]
        self._base = now
        self._active = 0
        self._active_end = now + width
        self._bi = 0
        self._size = 0
        self._scanned = 0
        self._popped = 0
        self._distribute_sorted(sorted_entries, now)

    def _estimate_width(self, entries: List[Entry], nbuckets: int) -> float:
        """Bucket width covering the pending span at target occupancy.

        ``entries`` must be sorted (first/last are the time extremes).
        """
        if not entries:
            return 1.0
        lo = entries[0][0]
        hi = entries[-1][0]
        span = hi - lo
        if span <= 0.0:
            # Same-tick pileup: spread is unknowable, keep the current
            # width rather than collapsing to zero.
            return self._width
        width = span * TARGET_OCCUPANCY / max(len(entries), nbuckets)
        # Keep the representable guarantee base + width > base.
        floor = max(abs(hi), 1.0) * 1e-12
        return max(width, floor)

    # -- introspection -------------------------------------------------
    @property
    def stats(self) -> dict:
        """Structure occupancy snapshot (diagnostics/tests only)."""
        return {
            "size": self._size,
            "nbuckets": self._nbuckets,
            "width": self._width,
            "urgent": len(self._urgent),
            "immediate": len(self._immediate),
            "near": len(self._near),
            "overflow": len(self._overflow),
        }
