"""AddressSpace tests: COW faults, dirty tracking, capture, teardown."""

from __future__ import annotations

import pytest

from repro.errors import OutOfMemoryError, SnapshotError
from repro.mem.address_space import AddressSpace
from repro.mem.frames import FrameAllocator
from repro.mem.paging import page_table_pages_for


@pytest.fixture
def alloc():
    return FrameAllocator(1_000_000)


def build_base(alloc, pages=1000):
    """An address space that wrote ``pages`` pages and snapshotted them."""
    space = AddressSpace(alloc, name="builder")
    space.write(0, pages)
    snapshot = space.capture_snapshot("base")
    return space, snapshot


class TestFreshSpace:
    def test_fresh_space_owns_only_page_tables(self, alloc):
        space = AddressSpace(alloc)
        assert space.private_pages == 0
        assert space.page_table_pages == page_table_pages_for(0)

    def test_write_allocates_private_frames(self, alloc):
        space = AddressSpace(alloc)
        result = space.write(0, 100)
        assert result.pages_copied == 100
        assert space.private_pages == 100
        assert space.dirty_pages == 100

    def test_rewrite_does_not_refault(self, alloc):
        space = AddressSpace(alloc)
        space.write(0, 100)
        result = space.write(50, 100)
        assert result.pages_copied == 50  # only the new half faults
        assert space.private_pages == 150

    def test_zero_write_noop(self, alloc):
        space = AddressSpace(alloc)
        assert space.write(0, 0).pages_written == 0

    def test_negative_write_rejected(self, alloc):
        with pytest.raises(ValueError):
            AddressSpace(alloc).write(0, -1)


class TestNegativeStart:
    """A write at a negative page is refused before it allocates, so
    the allocator and both page sets stay as they were, whichever way
    the private set is stored."""

    @staticmethod
    def _space(alloc, storage):
        space = AddressSpace(alloc)
        if storage == "list-backed":
            space.write(0, 2)
            space.write(10, 1)
            assert not space._private.frozen
        elif storage == "memo hit":
            AddressSpace(alloc).write(0, 2)
            space.write(0, 2)  # the same transition: a table lookup
            assert space._private.frozen and space._dirty.frozen
        else:
            assert space._private.frozen
        return space

    @pytest.mark.parametrize("storage", ["list-backed", "frozen", "memo hit"])
    def test_rejected_write_leaves_the_allocator_unchanged(self, storage):
        alloc = FrameAllocator(100)
        space = self._space(alloc, storage)
        before = alloc.stats()
        private, dirty = space._private.copy(), space._dirty.copy()
        faults = space.fault_count
        with pytest.raises(ValueError, match="negative page number -5"):
            space.write(-5, 3)
        assert alloc.stats() == before
        assert space._private == private and space._dirty == dirty
        assert space.fault_count == faults


class TestDeployFromSnapshot:
    def test_deploy_is_shallow(self, alloc):
        _, base = build_base(alloc)
        before = alloc.allocated_pages
        deployed = AddressSpace(alloc, base=base)
        # Only paging structures are allocated at deploy time.
        assert (
            alloc.allocated_pages - before
            == page_table_pages_for(base.stack_page_count())
        )
        assert deployed.private_pages == 0

    def test_deploy_retains_snapshot(self, alloc):
        _, base = build_base(alloc)
        refs_before = base.refcount
        deployed = AddressSpace(alloc, base=base)
        assert base.refcount == refs_before + 1
        deployed.destroy()
        assert base.refcount == refs_before

    def test_deploy_from_deleted_snapshot_rejected(self, alloc):
        builder, base = build_base(alloc)
        builder.destroy()
        base.delete()
        with pytest.raises(SnapshotError):
            AddressSpace(alloc, base=base)

    def test_write_to_snapshot_page_copies_on_write(self, alloc):
        _, base = build_base(alloc, pages=1000)
        deployed = AddressSpace(alloc, base=base)
        result = deployed.write(0, 10)
        assert result.pages_copied == 10
        assert deployed.private_pages == 10
        # The snapshot itself is untouched.
        assert base.page_count == 1000

    def test_reads_resolve_through_stack(self, alloc):
        _, base = build_base(alloc, pages=100)
        deployed = AddressSpace(alloc, base=base)
        deployed.write(0, 10)
        probe = deployed.read(0, 200)
        assert probe.pages_private == 10
        assert probe.pages_from_stack == 90
        assert probe.pages_unmapped == 100

    def test_many_deploys_share_one_snapshot(self, alloc):
        _, base = build_base(alloc, pages=10_000)
        before = alloc.allocated_pages
        spaces = [AddressSpace(alloc, base=base) for _ in range(50)]
        per_space = page_table_pages_for(base.stack_page_count())
        assert alloc.allocated_pages - before == 50 * per_space
        for space in spaces:
            space.destroy()
        assert alloc.allocated_pages == before


class TestDirtyTracking:
    def test_capture_collects_only_dirty(self, alloc):
        _, base = build_base(alloc, pages=1000)
        deployed = AddressSpace(alloc, base=base)
        deployed.write(0, 25)
        snapshot = deployed.capture_snapshot("diff")
        assert snapshot.page_count == 25
        assert snapshot.parent is base

    def test_capture_clears_dirty_keeps_private(self, alloc):
        space = AddressSpace(alloc)
        space.write(0, 100)
        space.capture_snapshot("first")
        assert space.dirty_pages == 0
        assert space.private_pages == 100

    def test_rewrite_after_capture_dirties_again_without_fault(self, alloc):
        space = AddressSpace(alloc)
        space.write(0, 100)
        space.capture_snapshot("first")
        result = space.write(0, 50)
        assert result.pages_copied == 0  # already private
        assert space.dirty_pages == 50

    def test_successive_captures_form_stack(self, alloc):
        space = AddressSpace(alloc)
        space.write(0, 100)
        first = space.capture_snapshot("first")
        space.write(200, 10)
        second = space.capture_snapshot("second")
        assert second.parent is first
        assert space.base is second
        assert second.stack_page_count() == 110

    def test_fault_count_accumulates(self, alloc):
        _, base = build_base(alloc)
        deployed = AddressSpace(alloc, base=base)
        deployed.write(0, 10)
        deployed.write(20, 5)
        assert deployed.fault_count == 15


class TestDestroy:
    def test_destroy_frees_everything(self, alloc):
        before = alloc.allocated_pages
        space = AddressSpace(alloc)
        space.write(0, 500)
        freed = space.destroy()
        assert freed == 500 + page_table_pages_for(0)
        assert alloc.allocated_pages == before

    def test_destroy_idempotent(self, alloc):
        space = AddressSpace(alloc)
        space.destroy()
        assert space.destroy() == 0

    def test_operations_after_destroy_rejected(self, alloc):
        space = AddressSpace(alloc)
        space.destroy()
        with pytest.raises(SnapshotError):
            space.write(0, 1)
        with pytest.raises(SnapshotError):
            space.capture_snapshot("nope")

    def test_snapshot_survives_capturer_destroy(self, alloc):
        space = AddressSpace(alloc)
        space.write(0, 100)
        snapshot = space.capture_snapshot("kept")
        space.destroy()
        assert not snapshot.deleted
        assert snapshot.refcount == 0
        snapshot.delete()


class TestMemoryPressure:
    def test_write_raises_oom_when_exhausted(self):
        alloc = FrameAllocator(100)
        space = AddressSpace(alloc)
        with pytest.raises(OutOfMemoryError):
            space.write(0, 200)

    def test_resident_accounting(self, alloc):
        _, base = build_base(alloc, pages=1000)
        deployed = AddressSpace(alloc, base=base)
        deployed.write(0, 256)
        expected = 256 + page_table_pages_for(base.stack_page_count())
        assert deployed.resident_pages == expected
        assert deployed.resident_mb == pytest.approx(expected / 256.0)


class TestFaultClassification:
    """The §6 fault taxonomy, checked against actual behaviour."""

    def test_all_five_resolutions(self, alloc):
        from repro.mem.address_space import FaultResolution as F

        _, base = build_base(alloc, pages=100)
        space = AddressSpace(alloc, base=base)
        space.write(0, 10)  # private copies of stack pages

        assert space.classify_fault(5, write=True) == F.ALREADY_PRIVATE
        assert space.classify_fault(5, write=False) == F.ALREADY_PRIVATE
        assert space.classify_fault(50, write=True) == F.CLONE_FROM_STACK
        assert space.classify_fault(50, write=False) == F.MAP_READ_ONLY
        assert space.classify_fault(5000, write=True) == F.ALLOCATE_NEW
        assert space.classify_fault(5000, write=False) == F.INVALID

    def test_classification_predicts_write_cost(self, alloc):
        from repro.mem.address_space import FaultResolution as F

        _, base = build_base(alloc, pages=100)
        space = AddressSpace(alloc, base=base)
        for page in (3, 50, 900):
            kind = space.classify_fault(page, write=True)
            result = space.write(page, 1)
            expected_copy = kind in (F.CLONE_FROM_STACK, F.ALLOCATE_NEW)
            assert result.pages_copied == (1 if expected_copy else 0), kind

    def test_destroyed_space_rejects_classification(self, alloc):
        from repro.errors import SnapshotError

        space = AddressSpace(alloc)
        space.destroy()
        with pytest.raises(SnapshotError):
            space.classify_fault(0, write=True)
