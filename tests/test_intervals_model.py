"""Randomized model-based test: IntervalSet vs a naive ``set[int]``.

The safety net for the linear-merge rewrite of the bulk interval ops:
thousands of mixed ``add``/``discard``/``update``/``difference_update``/
``union``/``intersection``/``difference`` operations are replayed
against a plain Python set of page numbers, asserting identical pages,
cached counts, and canonical extents after every step.  Interning runs
the same way, interleaved with copy-on-write writes and mutation of
copies, checking that no canonical set ever changes.  Seeds are fixed
so failures replay exactly (stdlib ``random`` only — no hypothesis
shrinking needed for the gate).
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.mem.intervals import IntervalSet, clear_interned

SEEDS = [0, 1, 7, 42, 1337, 0xC0FFEE]

#: Page-number universe; small enough that collisions (merges, splits,
#: overlaps) happen constantly, large enough for multi-extent sets.
SPAN = 400

OPS_PER_SEED = 2000


def random_interval(rng: random.Random) -> tuple:
    a = rng.randrange(SPAN)
    b = rng.randrange(SPAN)
    lo, hi = min(a, b), max(a, b)
    return lo, hi + rng.randrange(3)  # sometimes empty (stop == start)


def random_operand(rng: random.Random) -> tuple:
    """A second (IntervalSet, set) pair to feed the bulk ops."""
    spans = [random_interval(rng) for _ in range(rng.randrange(8))]
    intervals = IntervalSet(s for s in spans if s[0] < s[1])
    model = set()
    for start, stop in spans:
        model.update(range(start, stop))
    return intervals, model


def check_canonical(intervals: IntervalSet) -> None:
    """Extents must be sorted, disjoint, non-adjacent, non-empty, and the
    cached page count must match the extent sum."""
    spans = intervals.intervals()
    total = 0
    for start, stop in spans:
        assert start < stop, spans
        total += stop - start
    for (_, prev_stop), (next_start, _) in zip(spans, spans[1:]):
        assert next_start > prev_stop, spans
    assert intervals.page_count == total
    assert len(intervals) == total
    assert bool(intervals) == (total > 0)


def check_equivalent(intervals: IntervalSet, model: set) -> None:
    check_canonical(intervals)
    assert set(intervals.pages()) == model
    assert intervals.page_count == len(model)


@pytest.mark.parametrize("seed", SEEDS)
def test_interval_ops_match_set_model(seed):
    rng = random.Random(seed)
    intervals = IntervalSet()
    model: set = set()
    operations = (
        "add",
        "discard",
        "update",
        "difference_update",
        "union",
        "intersection",
        "difference",
        "copy",
        "clear",
    )
    weights = (30, 25, 10, 10, 6, 6, 6, 4, 3)
    for _step in range(OPS_PER_SEED):
        op = rng.choices(operations, weights)[0]
        if op == "add":
            start, stop = random_interval(rng)
            intervals.add(start, stop)
            model.update(range(start, stop))
        elif op == "discard":
            start, stop = random_interval(rng)
            intervals.discard(start, stop)
            model.difference_update(range(start, stop))
        elif op == "update":
            other, other_model = random_operand(rng)
            intervals.update(other)
            model |= other_model
        elif op == "difference_update":
            other, other_model = random_operand(rng)
            intervals.difference_update(other)
            model -= other_model
        elif op == "union":
            other, other_model = random_operand(rng)
            out = intervals.union(other)
            check_equivalent(out, model | other_model)
        elif op == "intersection":
            other, other_model = random_operand(rng)
            out = intervals.intersection(other)
            check_equivalent(out, model & other_model)
        elif op == "difference":
            other, other_model = random_operand(rng)
            out = intervals.difference(other)
            check_equivalent(out, model - other_model)
        elif op == "copy":
            intervals = intervals.copy()
        elif op == "clear":
            intervals.clear()
            model = set()
        check_equivalent(intervals, model)
        # Point queries stay consistent with the model too.
        probe = rng.randrange(SPAN)
        assert (probe in intervals) == (probe in model)
    # Extremes: extents reported by the final set round-trip.
    rebuilt = IntervalSet(intervals.intervals())
    assert rebuilt == intervals
    check_equivalent(rebuilt, model)


@pytest.mark.parametrize("seed", SEEDS)
def test_relations_match_set_model(seed):
    rng = random.Random(seed)
    for _case in range(300):
        left, left_model = random_operand(rng)
        right, right_model = random_operand(rng)
        assert left.issubset(right) == left_model.issubset(right_model)
        assert left.isdisjoint(right) == left_model.isdisjoint(right_model)
        start, stop = random_interval(rng)
        window = set(range(start, stop))
        assert left.overlap_size(start, stop) == len(window & left_model)
        missing = set()
        for s, e in left.missing_in_range(start, stop):
            missing.update(range(s, e))
        assert missing == window - left_model


@pytest.mark.parametrize("seed", SEEDS)
def test_frozen_copy_reads_match_list_backed(seed):
    """Every read gives the same answer on a frozen (tuple-backed) copy,
    the interned one, with the frozen copy as either operand, and what a
    read builds is list-backed."""
    rng = random.Random(seed)
    for _case in range(300):
        left, _ = random_operand(rng)
        right, _ = random_operand(rng)
        frozen_left, frozen_right = left.interned(), right.interned()
        assert frozen_left.frozen and not left.frozen
        assert frozen_left == left and left == frozen_left
        assert frozen_left.intervals() == left.intervals()
        assert frozen_left.page_count == left.page_count
        start, stop = random_interval(rng)
        probe = rng.randrange(SPAN)
        assert (probe in frozen_left) == (probe in left)
        for name in ("overlap_size", "missing_in_range", "intersect_range"):
            read = getattr(frozen_left, name)(start, stop)
            assert read == getattr(left, name)(start, stop)
        operands = (
            (frozen_left, right),
            (left, frozen_right),
            (frozen_left, frozen_right),
        )
        for a, b in operands:
            for name in ("union", "intersection", "difference"):
                out = getattr(a, name)(b)
                assert out == getattr(left, name)(right)
                check_canonical(out)
                assert not out.frozen
            for name in ("issubset", "isdisjoint"):
                assert getattr(a, name)(b) == getattr(left, name)(right)
            assert (a == b) == (left == right)
        merged = left.copy()
        merged.update(frozen_right)
        assert merged == left.union(right) and not merged.frozen
        merged.difference_update(frozen_left)
        assert merged == right.difference(left) and not merged.frozen


def test_interval_set_is_unhashable():
    with pytest.raises(TypeError):
        hash(IntervalSet())
    with pytest.raises(TypeError):
        hash(IntervalSet([(0, 1)]).interned())
    with pytest.raises(TypeError):
        {IntervalSet([(0, 1)])}



@pytest.mark.parametrize("seed", SEEDS)
def test_interning_interleaved_with_mutation_of_copies(seed):
    """Sets that intern, write copy-on-write (``cow_add``), copy and
    mutate, union through the memo and clear the table, in random
    order: each holder keeps its model's pages, equal interned content
    is one object until the table is cleared, and no canonical set ever
    changes content or thaws."""
    rng = random.Random(seed)
    holders = [[IntervalSet(), set()] for _ in range(4)]
    #: Every canonical set handed out, with the extents it had then.
    handed_out: dict = {}
    operations = ("intern", "cow_add", "mutate_copy", "union", "clear_table")
    weights = (25, 35, 25, 12, 3)
    for _step in range(OPS_PER_SEED):
        holder = rng.choice(holders)
        op = rng.choices(operations, weights)[0]
        if op == "intern":
            canonical = holder[0].interned()
            assert canonical.frozen and canonical.canonical
            assert canonical == holder[0]
            assert canonical.interned() is canonical
            holder[0] = canonical
        elif op == "cow_add":
            start, stop = random_interval(rng)
            before = holder[0]
            holder[0] = before.cow_add(start, stop)
            holder[1].update(range(start, stop))
            if before.frozen:
                changed = set(range(start, stop)) - set(before.pages())
                assert (holder[0] is before) == (not changed)
            else:
                assert holder[0] is before
        elif op == "mutate_copy":
            mutable = holder[0].copy()
            other, other_model = random_operand(rng)
            if rng.random() < 0.5:
                mutable.update(other)
                holder[1] |= other_model
            else:
                mutable.difference_update(other)
                holder[1] -= other_model
            holder[0] = mutable
        elif op == "union":
            partner = rng.choice(holders)
            left, right = holder[0].interned(), partner[0].interned()
            union = left.interned_union(right)
            assert union.canonical and union == left.union(right)
            assert left.interned_union(right) is union
            holder[0] = union
            holder[1] = holder[1] | partner[1]
        else:
            clear_interned()
        check_equivalent(holder[0], holder[1])
        if holder[0].canonical:
            handed_out.setdefault(id(holder[0]), (holder[0], holder[0].intervals()))
        # Equal content interns to one object while the table lasts.
        interned = [h[0].interned() for h in holders]
        for a, b in itertools.combinations(interned, 2):
            assert (a is b) == (a == b)
        # A canonical set its holder has since dropped is never changed.
        if handed_out:
            canonical, extents = rng.choice(list(handed_out.values()))
            assert canonical.frozen and canonical.intervals() == extents
    for canonical, extents in handed_out.values():
        assert canonical.frozen and canonical.intervals() == extents
        with pytest.raises(TypeError):
            canonical.add(0, SPAN)
        assert canonical.intervals() == extents
