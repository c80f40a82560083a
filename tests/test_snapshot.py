"""Snapshot and snapshot-stack tests: lineage, refcounts, deletion rules."""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.errors import SnapshotError
from repro.mem.frames import FrameAllocator
from repro.mem.intervals import IntervalSet
from repro.mem.paging import page_table_pages_for
from repro.mem.snapshot import CpuState, Snapshot
from repro.workload.functions import nop_function
from tests.census import tracked_census


@pytest.fixture
def alloc():
    return FrameAllocator(1_000_000)


def make_snapshot(alloc, name="snap", pages=((0, 100),), parent=None):
    return Snapshot(
        name=name,
        pages=IntervalSet(pages),
        allocator=alloc,
        parent=parent,
        cpu=CpuState(trigger_label=name),
    )


class TestBasics:
    def test_pages_are_copied_and_immutable(self, alloc):
        source = IntervalSet([(0, 10)])
        snapshot = make_snapshot(alloc, pages=[(0, 10)])
        source.add(100, 200)
        assert snapshot.page_count == 10
        # .pages returns a copy; mutating it cannot corrupt the snapshot.
        view = snapshot.pages
        view.add(500, 600)
        assert snapshot.page_count == 10

    def test_frames_charged_on_capture(self, alloc):
        before = alloc.allocated_pages
        snapshot = make_snapshot(alloc, pages=[(0, 256)])
        data_and_pt = 256 + page_table_pages_for(256)
        assert alloc.allocated_pages - before == data_and_pt
        assert snapshot.footprint_pages == data_and_pt

    def test_size_mb(self, alloc):
        snapshot = make_snapshot(alloc, pages=[(0, 256)])
        assert snapshot.size_mb == 1.0

    def test_cpu_state_recorded(self, alloc):
        snapshot = make_snapshot(alloc, name="runtime")
        assert snapshot.cpu.trigger_label == "runtime"


class TestStacks:
    def test_lineage_and_depth(self, alloc):
        base = make_snapshot(alloc, name="base", pages=[(0, 100)])
        child = make_snapshot(alloc, name="child", pages=[(200, 250)], parent=base)
        grandchild = make_snapshot(
            alloc, name="grand", pages=[(300, 310)], parent=child
        )
        assert grandchild.depth == 3
        assert [s.name for s in grandchild.stack()] == ["base", "child", "grand"]

    def test_stack_pages_union(self, alloc):
        base = make_snapshot(alloc, pages=[(0, 100)])
        child = make_snapshot(alloc, pages=[(50, 150)], parent=base)
        assert child.stack_page_count() == 150

    def test_deleted_snapshot_stack_view_covers_only_its_pages(self, alloc):
        base = make_snapshot(alloc, name="base", pages=[(0, 100)])
        child = make_snapshot(alloc, name="child", pages=[(200, 250)], parent=base)
        assert child.stack_page_count() == 150  # the union is memoised
        child.delete()
        assert child.parent is None
        assert child.stack_pages_view() == IntervalSet([(200, 250)])

    def test_resolve_finds_topmost_owner(self, alloc):
        base = make_snapshot(alloc, name="base", pages=[(0, 100)])
        child = make_snapshot(alloc, name="child", pages=[(50, 60)], parent=base)
        assert child.resolve(55) is child  # child's diff wins
        assert child.resolve(10) is base
        assert child.resolve(500) is None

    def test_child_retains_parent(self, alloc):
        base = make_snapshot(alloc)
        assert base.refcount == 0
        child = make_snapshot(alloc, parent=base)
        assert base.refcount == 1
        child.delete()
        assert base.refcount == 0


#: Every mutator of a page set, including one that would change nothing.
MUTATIONS = {
    "add": lambda pages: pages.add(500, 600),
    "add_covered": lambda pages: pages.add(0, 10),
    "discard": lambda pages: pages.discard(0, 10),
    "clear": lambda pages: pages.clear(),
    "update": lambda pages: pages.update(IntervalSet([(500, 600)])),
    "difference_update": lambda pages: pages.difference_update(
        IntervalSet([(0, 10)])
    ),
}


class TestFrozenPages:
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_stack_view_rejects_mutation(self, alloc, mutation):
        base = make_snapshot(alloc, name="base", pages=[(0, 100)])
        child = make_snapshot(alloc, name="child", pages=[(200, 250)], parent=base)
        for snapshot, count in ((base, 100), (child, 150)):
            view = snapshot.stack_pages_view()
            extents = view.intervals()
            with pytest.raises(TypeError):
                MUTATIONS[mutation](view)
            assert view.intervals() == extents
            assert snapshot.stack_pages_view() is view
            assert snapshot.stack_page_count() == count

    def test_base_stack_view_is_its_own_page_set(self, alloc):
        base = make_snapshot(alloc, pages=[(0, 100)])
        assert base.stack_pages_view() is base._pages
        assert base.stack_pages_view().frozen

    def test_copies_handed_out_are_mutable(self, alloc):
        base = make_snapshot(alloc, name="base", pages=[(0, 100)])
        child = make_snapshot(alloc, name="child", pages=[(200, 250)], parent=base)
        for pages in (child.pages, child.stack_pages()):
            assert not pages.frozen
            pages.add(500, 600)
        assert child.page_count == 50
        assert child.stack_page_count() == 150


class TestCensus:
    def test_cached_function_snapshot_is_itself_its_cpu_state_and_two_page_sets(
        self, seuss_node
    ):
        """The snapshot is the one object it retains: its CPU state is in
        its own slots and both page sets are canonical, shared with every
        snapshot of equal content; the walk stops at the parent."""
        fn = nop_function()
        seuss_node.invoke_sync(fn)
        snapshot = seuss_node.snapshot_cache.get(fn.key)
        assert snapshot.parent is not None
        assert snapshot._pages.canonical
        assert snapshot.stack_pages_view().canonical
        gc.collect()
        assert tracked_census(snapshot) == Counter(Snapshot=1)


class TestLifetime:
    def test_delete_frees_frames(self, alloc):
        before = alloc.allocated_pages
        snapshot = make_snapshot(alloc, pages=[(0, 512)])
        snapshot.delete()
        assert alloc.allocated_pages == before
        assert snapshot.deleted

    def test_delete_with_dependents_rejected(self, alloc):
        snapshot = make_snapshot(alloc)
        snapshot.retain()
        with pytest.raises(SnapshotError):
            snapshot.delete()
        snapshot.release()
        snapshot.delete()

    def test_parent_cannot_be_deleted_before_child(self, alloc):
        base = make_snapshot(alloc)
        child = make_snapshot(alloc, parent=base)
        with pytest.raises(SnapshotError):
            base.delete()
        child.delete()
        base.delete()

    def test_double_delete_rejected(self, alloc):
        snapshot = make_snapshot(alloc)
        snapshot.delete()
        with pytest.raises(SnapshotError):
            snapshot.delete()

    def test_retain_after_delete_rejected(self, alloc):
        snapshot = make_snapshot(alloc)
        snapshot.delete()
        with pytest.raises(SnapshotError):
            snapshot.retain()

    def test_release_underflow_rejected(self, alloc):
        snapshot = make_snapshot(alloc)
        with pytest.raises(SnapshotError):
            snapshot.release()

    def test_orphan_auto_deletes_on_last_release(self, alloc):
        before = alloc.allocated_pages
        snapshot = make_snapshot(alloc)
        snapshot.retain()
        snapshot.mark_orphan()
        assert not snapshot.deleted
        snapshot.release()
        assert snapshot.deleted
        assert alloc.allocated_pages == before

    def test_orphan_with_no_refs_deletes_immediately(self, alloc):
        snapshot = make_snapshot(alloc)
        snapshot.mark_orphan()
        assert snapshot.deleted
