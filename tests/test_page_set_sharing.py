"""Copy-on-write page sets: snapshots and idle UCs share one frozen copy
of each distinct page set, and a write copies only the set it changes."""

from __future__ import annotations

import pytest

from repro.faas.records import InvocationPath
from repro.mem import intervals
from repro.mem.address_space import AddressSpace
from repro.mem.frames import FrameAllocator
from repro.mem.intervals import EMPTY, IntervalSet, clear_interned
from repro.workload.functions import nop_function, unique_nop_set
from tests.conftest import make_seuss_node
from tests.test_snapshot import MUTATIONS


def idle_uc(node, fn):
    (uc,) = dict(node.uc_cache.items())[fn.key]
    return uc


def assert_frozen_and_intact(page_set, extents):
    assert page_set.frozen
    assert page_set.intervals() == extents
    for mutate in MUTATIONS.values():
        with pytest.raises(TypeError):
            mutate(page_set)
    assert page_set.intervals() == extents


class TestSnapshots:
    def test_two_captured_nop_snapshots_share_pages_and_stack_view(self, seuss_node):
        first, second = unique_nop_set(2)
        seuss_node.invoke_sync(first)
        seuss_node.invoke_sync(second)
        a = seuss_node.snapshot_cache.get(first.key)
        b = seuss_node.snapshot_cache.get(second.key)
        assert a is not b and a.parent is b.parent
        assert a._pages is b._pages and a._pages.canonical
        assert a.stack_pages_view() is b.stack_pages_view()
        assert a.stack_pages_view().canonical
        assert a.stack_pages_view() == a.parent.stack_pages_view().union(a.pages)

    def test_stack_union_is_built_once_per_pair(self, seuss_node, monkeypatch):
        first, second = unique_nop_set(2)
        seuss_node.invoke_sync(first)
        built = []
        union = IntervalSet.union

        def counted(self, other):
            built.append(1)
            return union(self, other)

        monkeypatch.setattr(IntervalSet, "union", counted)
        seuss_node.invoke_sync(second)
        assert seuss_node.snapshot_cache.get(second.key).stack_page_count() > 0
        assert built == []


class TestIdleUCs:
    def test_idle_ucs_of_one_shape_share_both_sets(self, seuss_node):
        first, second = unique_nop_set(2)
        seuss_node.invoke_sync(first)
        seuss_node.invoke_sync(second)
        a, b = idle_uc(seuss_node, first), idle_uc(seuss_node, second)
        assert a is not b
        assert a.space._private is b.space._private
        assert a.space._dirty is b.space._dirty
        assert a.space._private.canonical and a.space._dirty.canonical
        assert a.space._dirty.page_count > 0

    def test_hot_invocation_leaves_the_sets_shared(self, seuss_node):
        fn = nop_function()
        seuss_node.invoke_sync(fn)
        uc = idle_uc(seuss_node, fn)
        private, dirty = uc.space._private, uc.space._dirty
        extents = (private.intervals(), dirty.intervals())
        hot = seuss_node.invoke_sync(fn)
        assert hot.path is InvocationPath.HOT
        assert idle_uc(seuss_node, fn) is uc
        assert uc.space._private is private and uc.space._dirty is dirty
        assert (private.intervals(), dirty.intervals()) == extents

    def test_changing_write_copies_only_that_ucs_set(self, seuss_node):
        first, second = unique_nop_set(2)
        seuss_node.invoke_sync(first)
        seuss_node.invoke_sync(second)
        a, b = idle_uc(seuss_node, first), idle_uc(seuss_node, second)
        shared_private, shared_dirty = a.space._private, a.space._dirty
        private_extents = shared_private.intervals()
        dirty_extents = shared_dirty.intervals()
        page = private_extents[-1][1] + 100  # mapped by neither set
        result = a.space.write(page, 3)
        assert result.pages_copied == 3
        for mine, shared, extents in (
            (a.space._private, shared_private, private_extents),
            (a.space._dirty, shared_dirty, dirty_extents),
        ):
            assert mine is not shared and not mine.frozen
            assert mine.overlap_size(page, page + 3) == 3
            assert mine.difference(IntervalSet([(page, page + 3)])) == shared
            assert_frozen_and_intact(shared, extents)
            assert shared.canonical
        assert b.space._private is shared_private
        assert b.space._dirty is shared_dirty
        # The next park shares the new content too.
        a.space.intern_page_sets()
        assert a.space._private.canonical and a.space._dirty.canonical

    def test_rewrite_of_dirty_pages_copies_nothing(self, seuss_node):
        fn = nop_function()
        seuss_node.invoke_sync(fn)
        space = idle_uc(seuss_node, fn).space
        private, dirty = space._private, space._dirty
        start, stop = dirty.intervals()[0]
        assert space.write(start, stop - start).pages_copied == 0
        assert space._private is private and space._dirty is dirty


class TestAddressSpaceTransitions:
    @pytest.fixture
    def alloc(self):
        return FrameAllocator(1_000_000)

    def test_fresh_space_holds_the_canonical_empty_set(self, alloc):
        space = AddressSpace(alloc)
        assert space._private is EMPTY and space._dirty is EMPTY
        assert IntervalSet().interned() is EMPTY and EMPTY.canonical

    def test_capture_installs_the_canonical_empty_dirty_set(self, alloc):
        space = AddressSpace(alloc)
        space.write(0, 10)
        private = space._private
        snapshot = space.capture_snapshot("s")
        assert space._dirty is EMPTY
        assert space._private is private and private.canonical
        assert snapshot._pages.canonical
        assert snapshot._pages == IntervalSet([(0, 10)])

    def test_destroy_installs_the_canonical_empty_sets(self, alloc):
        space = AddressSpace(alloc)
        space.write(0, 10)
        space.intern_page_sets()
        shared = space._private
        assert shared.canonical
        assert space.destroy() == 10 + space.page_table_pages
        assert space._private is EMPTY and space._dirty is EMPTY
        assert_frozen_and_intact(shared, [(0, 10)])
        assert_frozen_and_intact(EMPTY, [])

    def test_resolve_batch_copies_the_private_set_before_update(self, alloc):
        space = AddressSpace(alloc)
        space.write(0, 10)
        space.intern_page_sets()
        shared = space._private
        result = space.resolve_batch(IntervalSet([(5, 20)]))
        assert result.pages_resolved == 10
        assert space._private is not shared and not space._private.frozen
        assert space._private == IntervalSet([(0, 20)])
        assert_frozen_and_intact(shared, [(0, 10)])

    def test_intern_leaves_frozen_sets_alone(self, alloc):
        space = AddressSpace(alloc)
        space.write(0, 10)
        space.intern_page_sets()
        private, dirty = space._private, space._dirty
        clear_interned()
        space.intern_page_sets()
        assert space._private is private and space._dirty is dirty


def run_mix(config_kwargs, clear_every_step):
    """Cold, warm and hot NOPs on one small node; returns what each
    invocation reported and the node's closing memory books."""
    node = make_seuss_node(**config_kwargs)
    fns = unique_nop_set(6)
    out = []
    for step in range(40):
        fn = fns[(step * 7) % len(fns)] if step % 5 else fns[step % 3]
        if step % 9 == 0:
            node.uc_cache.drop_function(fn.key)  # the next one runs warm
        if clear_every_step:
            clear_interned()
        result = node.invoke_sync(fn)
        out.append(
            (
                result.path,
                result.latency_ms,
                tuple(result.breakdown.items()),
                result.pages_copied,
                result.pages_prefetched,
            )
        )
    books = (
        node.allocator.allocated_pages,
        node.allocator.stats(),
        len(node.snapshot_cache),
        len(node.uc_cache),
    )
    return out, books


@pytest.mark.parametrize(
    "config_kwargs",
    [{}, {"prefetch_working_sets": True}, {"snapshot_stacks": False}],
    ids=["default", "prefetch", "flattened"],
)
def test_clearing_the_table_changes_no_result(config_kwargs, monkeypatch):
    expected = run_mix(config_kwargs, clear_every_step=False)
    assert {path for path, *_ in expected[0]} == {
        InvocationPath.COLD,
        InvocationPath.WARM,
        InvocationPath.HOT,
    }
    assert run_mix(config_kwargs, clear_every_step=True) == expected
    # A table bound of one clears it on almost every insertion.
    monkeypatch.setattr(intervals, "_TABLE_LIMIT", 1)
    assert run_mix(config_kwargs, clear_every_step=False) == expected
