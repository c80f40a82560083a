"""Interval-coded page sets.

:class:`IntervalSet` is the core data structure of the memory substrate:
a set of page numbers stored as sorted, disjoint, half-open intervals
``[start, stop)``.  Dirty-page tracking, private (copy-on-write) page
tables, and snapshot page inventories are all IntervalSets.

The representation is exact — membership, counts, and set algebra all
operate at single-page granularity — but costs O(number of extents), not
O(number of pages).  A unikernel context writes memory in a handful of
contiguous extents (heap growth, stack, arenas), so this is what makes
caching 50,000+ contexts tractable in a Python simulation.

Complexity guarantees (n, m = extent counts of the two operands):

* ``add`` / ``discard`` — O(log n + w) where w is the number of extents
  the edited window touches;
* ``update`` / ``difference_update`` / ``union`` / ``intersection`` /
  ``difference`` / ``issubset`` / ``isdisjoint`` — O(n + m) single-pass
  linear merges (never the O(n·m) splice loop of repeated ``add``);
* ``page_count`` / ``len`` — O(1), maintained incrementally by every
  mutation.

A set is stored either as two lists (mutable: a UC's page sets while
an invocation writes them) or as two tuples of ints (frozen, read-only).
CPython stops tracking an all-int tuple at its first collection, so a
frozen set costs the cyclic collector nothing after that.  Every read
runs unchanged on either storage; every mutator of a frozen set raises
:class:`TypeError`.

Equal content is stored once: :meth:`IntervalSet.interned` returns the
*canonical* frozen set of its content, which every snapshot and idle UC
with that content shares (a node's thousands of NOP snapshots hold one
page set between them).  Writers copy a shared set before changing it
(:meth:`IntervalSet.cow_add`), so sharing is copy-on-write.

Transitions of frozen sets are memoised by identity: a frozen set never
changes, so what a write into it makes (:meth:`IntervalSet.cow_write`)
or what its union with another frozen set is
(:meth:`IntervalSet.interned_union`) is computed once per distinct
operand and looked up after that.  Every memo entry holds the sets
whose ids key it, so a keyed id cannot be reused while the entry lives.
The canonical table and the memo tables are bounded together: when one
fills, all are cleared, which loses sharing with the sets already
handed out but never changes a result.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

Interval = Tuple[int, int]

_FROZEN = "a frozen IntervalSet cannot be mutated"

#: Entries any table below may hold before all are cleared.
_TABLE_LIMIT = 4096


class IntervalSet:
    """A set of non-negative integers stored as disjoint intervals."""

    __slots__ = ("_starts", "_stops", "_count", "frozen")

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._starts: List[int] = []
        self._stops: List[int] = []
        self._count = 0
        #: Whether the set is tuple-backed and rejects mutation: set
        #: once, as a set never changes its storage kind.
        self.frozen = False
        for start, stop in intervals:
            self.add(start, stop)

    # -- construction helpers ------------------------------------------
    @classmethod
    def from_pages(cls, pages: Iterable[int]) -> "IntervalSet":
        """Build from individual page numbers (test/debug helper)."""
        out = cls()
        for page in sorted(set(pages)):
            out.add(page, page + 1)
        return out

    @classmethod
    def _from_lists(
        cls, starts: Sequence[int], stops: Sequence[int], count: int
    ) -> "IntervalSet":
        """Adopt already-canonical interval lists, or tuples for a
        frozen set (internal fast path)."""
        out = cls.__new__(cls)
        out._starts = starts
        out._stops = stops
        out._count = count
        out.frozen = starts.__class__ is tuple
        return out

    def copy(self) -> "IntervalSet":
        """A mutable (list-backed) copy, whatever this set's storage."""
        return IntervalSet._from_lists(
            list(self._starts), list(self._stops), self._count
        )

    # -- sharing -----------------------------------------------------------
    def interned(self) -> "IntervalSet":
        """The canonical frozen set with this set's content.

        Every set of equal content interns to the same object (this set
        itself, if it is frozen and the first of its content), so the
        holders of equal page sets keep one copy between them.
        """
        starts = self._starts
        if not starts:
            return EMPTY
        if starts.__class__ is tuple:
            stops = self._stops
        else:
            starts, stops = tuple(starts), tuple(self._stops)
        key = (starts, stops)
        canonical = _CANONICAL.get(key)
        if canonical is None:
            if len(_CANONICAL) >= _TABLE_LIMIT:
                clear_interned()
            canonical = (
                self
                if starts is self._starts
                else IntervalSet._from_lists(starts, stops, self._count)
            )
            _CANONICAL[key] = canonical
        return canonical

    @property
    def canonical(self) -> bool:
        """Whether this is the set :meth:`interned` returns for its
        content (shared, so never to be changed in place)."""
        starts = self._starts
        if starts.__class__ is not tuple:
            return False
        if not starts:
            return self is EMPTY
        return _CANONICAL.get((starts, self._stops)) is self

    def interned_union(self, other: "IntervalSet") -> "IntervalSet":
        """The canonical union of two frozen sets, built once per pair.

        A node's snapshots stack equal pages on one parent, so their
        stack unions come from a handful of distinct pairs.  The memo
        entry holds both operands, so the ids in its key stay theirs;
        a list-backed operand could change, so it is never memoised.
        """
        if not (self.frozen and other.frozen):
            return self.union(other).interned()
        key = (id(self), id(other))
        entry = _UNIONS.get(key)
        if entry is None:
            make_room(_UNIONS)
            entry = (self, other, self.union(other).interned())
            _UNIONS[key] = entry
        return entry[2]

    def cow_add(self, start: int, stop: int) -> "IntervalSet":
        """:meth:`add` on a set that may be shared; returns the set that
        holds the result.

        A list-backed set is changed in place and returned.  A frozen
        one is never changed: it is returned as it is when it already
        holds ``[start, stop)``, else the set :meth:`cow_write` makes
        (a list-backed copy, or the canonical union once the same write
        into the same set was made before).
        """
        if self._starts.__class__ is not tuple:
            self.add(start, stop)
            return self
        return self.cow_write(start, stop)[0]

    def cow_write(self, start: int, stop: int) -> Tuple["IntervalSet", int, int]:
        """What writing ``[start, stop)`` into this frozen set makes:
        the set holding the union, and the pages and extents the write
        fills (those missing before it).  Nothing is changed.

        Memoised by ``(id(self), start, stop)``.  The first such write
        computes the gaps, stores the canonical union and hands the
        writer a list-backed copy, so a writer that goes on writing
        splices in place; every later one is a table lookup that hands
        out the canonical union.  A write that fills nothing returns
        this set.  A list-backed set could change under its id, so it
        is refused.
        """
        key = (id(self), start, stop)
        entry = _WRITES.get(key)
        if entry is not None:
            return entry[1]
        if self._starts.__class__ is not tuple:
            raise TypeError("only a frozen IntervalSet's writes are memoised")
        if stop < start:
            raise ValueError(f"empty or inverted interval [{start}, {stop})")
        make_room(_WRITES)
        gaps = self.missing_in_range(start, stop)
        if not gaps:
            made = (self, 0, 0)
            _WRITES[key] = (self, made)
            return made
        out = self.copy()
        out.add(start, stop)
        pages = 0
        for s, e in gaps:
            pages += e - s
        _WRITES[key] = (self, (out.interned(), pages, len(gaps)))
        return out, pages, len(gaps)

    # -- basic queries ---------------------------------------------------
    @property
    def page_count(self) -> int:
        """Total number of pages in the set (O(1), cached)."""
        return self._count

    @property
    def extent_count(self) -> int:
        """Number of disjoint intervals (a fragmentation measure)."""
        return len(self._starts)

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __len__(self) -> int:
        return self._count

    def __contains__(self, page: int) -> bool:
        idx = bisect_right(self._starts, page) - 1
        return idx >= 0 and page < self._stops[idx]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        # tuple() of a tuple is the tuple itself, so this compares
        # content whether either side is frozen or not.
        return (
            self._count == other._count
            and tuple(self._starts) == tuple(other._starts)
            and tuple(self._stops) == tuple(other._stops)
        )

    # Content-equal sets would hash differently under the default
    # identity hash, silently breaking dict/set use; page sets are
    # mutable (and a frozen set equals its mutable copy), so they are
    # explicitly unhashable instead.
    __hash__ = None  # type: ignore[assignment]

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals())

    def intervals(self) -> List[Interval]:
        """The disjoint intervals in ascending order."""
        return list(zip(self._starts, self._stops))

    def pages(self) -> Iterator[int]:
        """Iterate individual page numbers (test/debug helper)."""
        for start, stop in zip(self._starts, self._stops):
            yield from range(start, stop)

    def __repr__(self) -> str:
        spans = ", ".join(f"[{s},{e})" for s, e in self.intervals())
        return f"IntervalSet({spans})"

    # -- mutation ----------------------------------------------------------
    def add(self, start: int, stop: int) -> None:
        """Insert the interval ``[start, stop)``, merging as needed."""
        starts, stops = self._starts, self._stops
        if starts.__class__ is tuple:
            raise TypeError(_FROZEN)
        if start < 0:
            raise ValueError(f"negative page number {start}")
        if stop <= start:
            if stop == start:
                return
            raise ValueError(f"empty or inverted interval [{start}, {stop})")
        # Find the window of existing intervals that touch [start, stop).
        # An interval (s, e) touches if s <= stop and e >= start.
        lo = bisect_left(stops, start)
        hi = bisect_right(starts, stop)
        if lo < hi:
            if starts[lo] <= start and stops[hi - 1] >= stop and hi - lo == 1:
                return  # already fully covered: no change
            start = min(start, starts[lo])
            stop = max(stop, stops[hi - 1])
            removed = 0
            for idx in range(lo, hi):
                removed += stops[idx] - starts[idx]
        else:
            removed = 0
        starts[lo:hi] = [start]
        stops[lo:hi] = [stop]
        self._count += (stop - start) - removed

    def discard(self, start: int, stop: int) -> None:
        """Remove the interval ``[start, stop)`` (missing parts ignored)."""
        starts, stops = self._starts, self._stops
        if starts.__class__ is tuple:
            raise TypeError(_FROZEN)
        if stop <= start:
            if stop == start:
                return
            raise ValueError(f"empty or inverted interval [{start}, {stop})")
        lo = bisect_right(stops, start)
        hi = bisect_left(starts, stop)
        if lo >= hi:
            return
        removed = 0
        for idx in range(lo, hi):
            removed += min(stop, stops[idx]) - max(start, starts[idx])
        new_starts: List[int] = []
        new_stops: List[int] = []
        # Left remnant of the first overlapped interval.
        if starts[lo] < start:
            new_starts.append(starts[lo])
            new_stops.append(start)
        # Right remnant of the last overlapped interval.
        if stops[hi - 1] > stop:
            new_starts.append(stop)
            new_stops.append(stops[hi - 1])
        starts[lo:hi] = new_starts
        stops[lo:hi] = new_stops
        self._count -= removed

    def clear(self) -> None:
        if self._starts.__class__ is tuple:
            raise TypeError(_FROZEN)
        self._starts.clear()
        self._stops.clear()
        self._count = 0

    def update(self, other: "IntervalSet") -> None:
        """In-place union with ``other`` (single-pass linear merge)."""
        if self._starts.__class__ is tuple:
            raise TypeError(_FROZEN)
        if not other._starts:
            return
        if not self._starts:
            self._starts = list(other._starts)
            self._stops = list(other._stops)
            self._count = other._count
            return
        self._starts, self._stops, self._count = _merge_union(
            self._starts, self._stops, other._starts, other._stops
        )

    def difference_update(self, other: "IntervalSet") -> None:
        """In-place removal of every page in ``other`` (linear merge)."""
        if self._starts.__class__ is tuple:
            raise TypeError(_FROZEN)
        if not self._starts or not other._starts:
            return
        self._starts, self._stops, self._count = _merge_difference(
            self._starts, self._stops, other._starts, other._stops
        )

    # -- set algebra ---------------------------------------------------
    def intersect_range(self, start: int, stop: int) -> List[Interval]:
        """Intervals of this set that fall within ``[start, stop)``."""
        if stop <= start:
            return []
        out: List[Interval] = []
        starts, stops = self._starts, self._stops
        lo = bisect_right(stops, start)
        for idx in range(lo, len(starts)):
            s, e = starts[idx], stops[idx]
            if s >= stop:
                break
            out.append((max(s, start), min(e, stop)))
        return out

    def overlap_size(self, start: int, stop: int) -> int:
        """Number of pages of ``[start, stop)`` present in the set."""
        if stop <= start:
            return 0
        total = 0
        starts, stops = self._starts, self._stops
        lo = bisect_right(stops, start)
        for idx in range(lo, len(starts)):
            s, e = starts[idx], stops[idx]
            if s >= stop:
                break
            total += min(e, stop) - max(s, start)
        return total

    def missing_in_range(self, start: int, stop: int) -> List[Interval]:
        """Sub-intervals of ``[start, stop)`` *not* present in the set.

        This is the copy-on-write fault computation: given a write to
        ``[start, stop)``, the missing sub-intervals are exactly the
        pages that must be copied into private frames.
        """
        if stop <= start:
            return []
        gaps: List[Interval] = []
        cursor = start
        starts, stops = self._starts, self._stops
        for idx in range(bisect_right(stops, start), len(starts)):
            s = starts[idx]
            if s >= stop:
                break
            if s > cursor:
                gaps.append((cursor, s))
            cursor = stops[idx]
            if cursor >= stop:
                return gaps
        if cursor < stop:
            gaps.append((cursor, stop))
        return gaps

    def union(self, other: "IntervalSet") -> "IntervalSet":
        if not other._starts:
            return self.copy()
        if not self._starts:
            return other.copy()
        return IntervalSet._from_lists(
            *_merge_union(
                self._starts, self._stops, other._starts, other._stops
            )
        )

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        starts: List[int] = []
        stops: List[int] = []
        count = 0
        a_starts, a_stops = self._starts, self._stops
        b_starts, b_stops = other._starts, other._stops
        i = j = 0
        na, nb = len(a_starts), len(b_starts)
        while i < na and j < nb:
            s = a_starts[i]
            bs = b_starts[j]
            if bs > s:
                s = bs
            e = a_stops[i]
            be = b_stops[j]
            if be < e:
                e = be
            if s < e:
                starts.append(s)
                stops.append(e)
                count += e - s
            if a_stops[i] <= b_stops[j]:
                i += 1
            else:
                j += 1
        return IntervalSet._from_lists(starts, stops, count)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        if not self._starts or not other._starts:
            return self.copy()
        return IntervalSet._from_lists(
            *_merge_difference(
                self._starts, self._stops, other._starts, other._stops
            )
        )

    def issubset(self, other: "IntervalSet") -> bool:
        """True when every page of this set is in ``other`` (linear)."""
        b_starts, b_stops = other._starts, other._stops
        nb = len(b_starts)
        j = 0
        for s, e in zip(self._starts, self._stops):
            while j < nb and b_stops[j] <= s:
                j += 1
            if j >= nb or b_starts[j] > s or b_stops[j] < e:
                return False
        return True

    def isdisjoint(self, other: "IntervalSet") -> bool:
        """True when the two sets share no page (linear, early exit)."""
        a_starts, a_stops = self._starts, self._stops
        b_starts, b_stops = other._starts, other._stops
        i = j = 0
        na, nb = len(a_starts), len(b_starts)
        while i < na and j < nb:
            if a_stops[i] <= b_starts[j]:
                i += 1
            elif b_stops[j] <= a_starts[i]:
                j += 1
            else:
                return False
        return True


#: The canonical empty set: what :meth:`IntervalSet.interned` returns
#: for no pages, whatever the table holds.
EMPTY = IntervalSet._from_lists((), (), 0)

#: The canonical set of each distinct non-empty content, keyed by its
#: ``(starts, stops)`` tuples.
_CANONICAL: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], IntervalSet] = {}

#: Canonical unions by the ids of their frozen operands, each entry
#: ``(left, right, union)``.
_UNIONS: Dict[Tuple[int, int], Tuple[IntervalSet, IntervalSet, IntervalSet]] = {}

#: Write transitions by ``(id(operand), start, stop)``, each entry
#: ``(operand, (union, pages, extents))`` (see :meth:`IntervalSet.cow_write`).
_WRITES: Dict[
    Tuple[int, int, int], Tuple[IntervalSet, Tuple[IntervalSet, int, int]]
] = {}

#: Every memo table keyed by the ids of frozen sets, by name.
_MEMOS: Dict[str, dict] = {"unions": _UNIONS, "writes": _WRITES}


def memo_table(name: str) -> dict:
    """A new memo table keyed by the ids of frozen sets, emptied with
    the others.  Each entry must hold the sets whose ids key it, and
    :func:`make_room` must run before an entry is computed."""
    table: dict = {}
    _MEMOS[name] = table
    return table


def make_room(table: dict) -> None:
    """Clear every table when ``table`` is full.  Called before a new
    entry is computed, so a canonical set the entry holds was interned
    after the clear and is still canonical once the entry is stored."""
    if len(table) >= _TABLE_LIMIT:
        clear_interned()


def clear_interned() -> None:
    """Empty the canonical table and every memo table.  The sets already
    handed out stay frozen and valid; sets interned later just stop
    sharing with them."""
    _CANONICAL.clear()
    for table in _MEMOS.values():
        table.clear()


def table_sizes() -> Dict[str, int]:
    """Entries in the canonical table (distinct non-empty contents) and
    in each memo table, by name."""
    sizes = {"canonical": len(_CANONICAL)}
    for name, table in _MEMOS.items():
        sizes[name] = len(table)
    return sizes


def _merge_union(
    a_starts: Sequence[int],
    a_stops: Sequence[int],
    b_starts: Sequence[int],
    b_stops: Sequence[int],
) -> Tuple[List[int], List[int], int]:
    """Union of two canonical interval lists in one pass.

    Returns new canonical ``(starts, stops, page_count)`` — adjacent and
    overlapping runs are coalesced as they stream out.
    """
    starts: List[int] = []
    stops: List[int] = []
    count = 0
    i = j = 0
    na, nb = len(a_starts), len(b_starts)
    cur_start: Optional[int] = None
    cur_stop = 0
    while i < na or j < nb:
        if j >= nb or (i < na and a_starts[i] <= b_starts[j]):
            s, e = a_starts[i], a_stops[i]
            i += 1
        else:
            s, e = b_starts[j], b_stops[j]
            j += 1
        if cur_start is None:
            cur_start, cur_stop = s, e
        elif s <= cur_stop:  # overlap or adjacency: extend the run
            if e > cur_stop:
                cur_stop = e
        else:
            starts.append(cur_start)
            stops.append(cur_stop)
            count += cur_stop - cur_start
            cur_start, cur_stop = s, e
    if cur_start is not None:
        starts.append(cur_start)
        stops.append(cur_stop)
        count += cur_stop - cur_start
    return starts, stops, count


def _merge_difference(
    a_starts: Sequence[int],
    a_stops: Sequence[int],
    b_starts: Sequence[int],
    b_stops: Sequence[int],
) -> Tuple[List[int], List[int], int]:
    """``a - b`` over canonical interval lists in one pass."""
    starts: List[int] = []
    stops: List[int] = []
    count = 0
    j = 0
    nb = len(b_starts)
    for s, e in zip(a_starts, a_stops):
        # Skip subtrahend intervals wholly before this minuend interval.
        while j < nb and b_stops[j] <= s:
            j += 1
        cursor = s
        k = j
        while k < nb and b_starts[k] < e:
            bs, be = b_starts[k], b_stops[k]
            if bs > cursor:
                starts.append(cursor)
                stops.append(bs)
                count += bs - cursor
            if be >= e:
                cursor = e
                break
            if be > cursor:
                cursor = be
            k += 1
        if cursor < e:
            starts.append(cursor)
            stops.append(e)
            count += e - cursor
    return starts, stops, count
