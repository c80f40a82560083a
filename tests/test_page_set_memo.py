"""Memoised transitions of frozen page sets: a write into a frozen set
and a read of a frozen private set are table lookups once the same
transition was computed, and a lookup answers exactly what the
computation would."""

from __future__ import annotations

import random
import sys
from collections import Counter

import pytest

from repro.errors import OutOfMemoryError
from repro.faas.records import InvocationPath
from repro.mem import address_space, intervals
from repro.mem import snapshot as snapshots
from repro.mem.address_space import AddressSpace, ReadResult, WriteResult
from repro.mem.frames import FrameAllocator
from repro.mem.intervals import EMPTY, IntervalSet, clear_interned
from repro.mem.snapshot import CpuState, content_checksum
from repro.workload.functions import nop_function

#: The interval algebra a deploy ran before its transitions were memoised.
ALGEBRA = ("missing_in_range", "overlap_size", "add", "copy")


def count_algebra(monkeypatch) -> Counter:
    calls: Counter = Counter()
    for name in ALGEBRA:
        method = getattr(IntervalSet, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(IntervalSet, name, counted)
    return calls


def test_a_repeated_deploy_runs_no_interval_algebra(seuss_node, monkeypatch):
    fn = nop_function()
    assert seuss_node.invoke_sync(fn).path is InvocationPath.COLD
    seuss_node.uc_cache.drop_function(fn.key)
    assert seuss_node.invoke_sync(fn).path is InvocationPath.WARM
    assert seuss_node.invoke_sync(fn).path is InvocationPath.HOT
    calls = count_algebra(monkeypatch)
    seuss_node.uc_cache.drop_function(fn.key)
    assert seuss_node.invoke_sync(fn).path is InvocationPath.WARM
    assert calls == Counter()
    assert seuss_node.invoke_sync(fn).path is InvocationPath.HOT
    assert calls == Counter()


class TestOutOfMemory:
    @pytest.mark.parametrize("path", ["memo_hit", "memo_miss", "list_backed"])
    def test_a_write_that_cannot_allocate_changes_nothing(self, path):
        if path == "memo_hit":
            AddressSpace(FrameAllocator(1_000)).write(0, 10)
        allocator = FrameAllocator(12)  # 3 go to the page tables
        space = AddressSpace(allocator)
        if path == "list_backed":
            space.write(20, 2)
            space.write(30, 1)
            assert not space._private.frozen and not space._dirty.frozen
        else:
            assert space._private is EMPTY and space._dirty is EMPTY
            memoised = (id(EMPTY), 0, 10) in intervals._WRITES
            assert memoised == (path == "memo_hit")
        private, dirty = space._private, space._dirty
        extents = (private.intervals(), dirty.intervals())
        books, faults = allocator.stats(), space.fault_count
        with pytest.raises(OutOfMemoryError):
            space.write(0, 10)
        assert space._private is private and space._dirty is dirty
        assert (private.intervals(), dirty.intervals()) == extents
        assert allocator.stats() == books
        assert space.fault_count == faults


def test_an_entry_keeps_its_operands_alive():
    allocator = FrameAllocator(1_000)
    parent = AddressSpace(allocator)
    parent.write(0, 8)
    base = parent.capture_snapshot("base")
    space = AddressSpace(allocator, base=base)
    space.write(2, 2)
    space.intern_page_sets()
    private, stack = space._private, base.stack_pages_view()
    clear_interned()  # neither set is in any table now
    alone = (sys.getrefcount(private), sys.getrefcount(stack))
    space.read(0, 10)
    private.cow_write(40, 42)
    # One reference from the read entry to each set, one from the
    # write entry to the private set.
    assert (sys.getrefcount(private), sys.getrefcount(stack)) == (
        alone[0] + 2,
        alone[1] + 1,
    )
    # Once the holders let go, the entries still answer for the same
    # objects, so no other set can take their ids.
    key = (id(private), id(stack), 0, 10)
    extents = (private.intervals(), stack.intervals())
    space.destroy()
    parent.destroy()
    del private, stack, space, parent
    held_private, held_stack, result = address_space._READS[key]
    assert (held_private.intervals(), held_stack.intervals()) == extents
    assert result == ReadResult(10, 2, 6, 2)
    held = sys.getrefcount(held_private)
    clear_interned()
    assert sys.getrefcount(held_private) == held - 2
    assert address_space._READS == {} and intervals._WRITES == {}


def runs(pages) -> int:
    """Maximal runs of consecutive page numbers in a sorted list."""
    return sum(1 for i, page in enumerate(pages) if i == 0 or pages[i - 1] != page - 1)


#: The CPU state the checksum oracle checksums every page set with.
CPU = CpuState(instruction_pointer=7, stack_pointer=3, trigger_label="model")


def tabled_sets():
    """Every page set the canonical and memo tables hold."""
    yield from intervals._CANONICAL.values()
    for operand, (written, _, _) in intervals._WRITES.values():
        yield operand
        yield written
    for entry in intervals._UNIONS.values():
        yield from entry
    for private, stack, _ in address_space._READS.values():
        yield private
        if stack is not None:
            yield stack
    for pages, _ in snapshots._EXTENT_BYTES.values():
        yield pages


def check_storage_flag(page_set: IntervalSet) -> None:
    """``frozen`` is the set's storage kind: tuples, or lists."""
    assert page_set.frozen is (page_set._starts.__class__ is tuple)
    assert page_set.frozen is (page_set._stops.__class__ is tuple)


def check_checksum(page_set: IntervalSet) -> None:
    """The checksum of a set, memoised when it is frozen, equals the one
    computed over a list-backed copy, which is never memoised."""
    copy = page_set.copy()
    assert not copy.frozen
    assert content_checksum("model", page_set, CPU) == content_checksum(
        "model", copy, CPU
    )


MODEL_SEEDS = [0, 1, 7, 42]
MODEL_STEPS = 1500
OPERATIONS = ("write", "read", "capture", "destroy", "intern", "clear")
WEIGHTS = (40, 25, 5, 12, 15, 3)


@pytest.mark.parametrize("seed", MODEL_SEEDS)
def test_memoised_spaces_match_a_memo_free_model(seed):
    """Spaces deployed from shared snapshots write, read, capture, are
    destroyed and redeployed, intern their sets and see the tables
    cleared, in random order.  Every result and every set equals a
    recomputation on plain Python sets, and no canonical set ever
    changes.  After every step, every set in play or in a table has
    ``frozen`` equal to its storage kind, and every memoised checksum
    (each canonical set's, from when it is handed out) equals the
    checksum of a list-backed copy."""
    rng = random.Random(seed)
    allocator = FrameAllocator(10_000_000)
    # Most accesses follow one script from where the space was
    # deployed, as repeated deploys of one shape do, so spaces repeat
    # each other's transitions; the rest are drawn from the same pool.
    script = [(rng.randrange(200), 1 + rng.randrange(12)) for _ in range(8)]
    bases = [(None, frozenset())]
    handed_out: dict = {}
    memo_hits = 0
    memoised_checksums = 0

    def deploy():
        base, stack = rng.choice(bases)
        return [AddressSpace(allocator, base=base), set(), set(), stack, 0, 0]

    def next_range(holder):
        if rng.random() < 0.25:
            return rng.choice(script)
        holder[5] += 1
        return script[(holder[5] - 1) % len(script)]

    def hand_out(page_set):
        if page_set.canonical and id(page_set) not in handed_out:
            handed_out[id(page_set)] = (page_set, page_set.intervals())
            check_checksum(page_set)

    spaces = [deploy() for _ in range(6)]
    for step in range(MODEL_STEPS):
        holder = rng.choice(spaces)
        space, private, dirty, stack = holder[:4]
        op = rng.choices(OPERATIONS, WEIGHTS)[0]
        if op == "write":
            start, npages = next_range(holder)
            key = (id(space._private), start, start + npages)
            memo_hits += space._private.frozen and key in intervals._WRITES
            written = set(range(start, start + npages))
            missing = sorted(written - private)
            assert space.write(start, npages) == WriteResult(
                npages, len(missing), runs(missing)
            )
            private |= written
            dirty |= written
            holder[4] += len(missing)
        elif op == "read":
            start, npages = next_range(holder)
            npages += rng.randrange(2)
            view = None if space.base is None else id(space.base.stack_pages_view())
            key = (id(space._private), view, start, npages)
            memo_hits += space._private.frozen and key in address_space._READS
            read = set(range(start, start + npages))
            owned = len(read & private)
            from_stack = len((read - private) & stack)
            assert space.read(start, npages) == ReadResult(
                npages, owned, from_stack, npages - owned - from_stack
            )
        elif op == "capture":
            snapshot = space.capture_snapshot(f"s{step}")
            holder[3] = stack = frozenset(stack | dirty)
            assert set(snapshot.pages.pages()) == dirty
            assert set(snapshot.stack_pages_view().pages()) == stack
            dirty.clear()
            hand_out(snapshot._pages)
            hand_out(snapshot.stack_pages_view())
            bases.append((snapshot, stack))
        elif op == "destroy":
            space.destroy()
            spaces[spaces.index(holder)] = deploy()
        elif op == "intern":
            space.intern_page_sets()
        else:
            clear_interned()
        for space, private, dirty, _, faults, _ in spaces:
            assert set(space._private.pages()) == private
            assert set(space._dirty.pages()) == dirty
            assert space.private_pages == len(private)
            assert space.fault_count == faults
            check_storage_flag(space._private)
            check_storage_flag(space._dirty)
            hand_out(space._private)
            hand_out(space._dirty)
        canonical, extents = rng.choice(list(handed_out.values()))
        assert canonical.frozen and canonical.intervals() == extents
        for page_set in tabled_sets():
            check_storage_flag(page_set)
        for page_set, _ in list(snapshots._EXTENT_BYTES.values()):
            check_checksum(page_set)
            memoised_checksums += 1
        if op == "capture":
            assert snapshot.checksum == content_checksum(
                snapshot.name, snapshot._pages.copy(), snapshot.cpu
            )
    for canonical, extents in handed_out.values():
        assert canonical.frozen and canonical.intervals() == extents
        check_storage_flag(canonical)
        check_checksum(canonical)
    assert memo_hits > 50 and memoised_checksums > 1000
