"""IdlePool tests: hot-path reuse, eviction and OOM reclamation."""

from __future__ import annotations

import pytest

from repro.mem.frames import FrameAllocator
from repro.seuss.idle_pool import IdlePool, IdlePoolStats
from repro.trace import Tracer, disable, enable
from repro.unikernel.context import UnikernelContext
from repro.unikernel.interpreters import NODEJS


@pytest.fixture
def alloc():
    return FrameAllocator(10_000_000)


@pytest.fixture
def base(alloc):
    uc = UnikernelContext(alloc, NODEJS)
    uc.boot()
    snapshot = uc.capture_snapshot("base")
    snapshot.retain()
    uc.destroy()
    return snapshot


def idle_uc(alloc, base, fn="fn"):
    uc = UnikernelContext(alloc, NODEJS, base=base)
    uc.start_listening()
    uc.accept_connection()
    uc.import_function(fn, 0.1)
    return uc


class TestHotPath:
    def test_put_pop_roundtrip(self, alloc, base):
        cache = IdlePool()
        uc = idle_uc(alloc, base)
        assert cache.put("fn", uc)
        assert cache.pop("fn") is uc
        assert cache.pop("fn") is None
        assert cache.stats.hot_hits == 1

    def test_per_function_limit(self, alloc, base):
        cache = IdlePool(per_function_limit=2)
        assert cache.put("fn", idle_uc(alloc, base))
        assert cache.put("fn", idle_uc(alloc, base))
        assert not cache.put("fn", idle_uc(alloc, base))
        assert len(cache) == 2

    def test_a_zero_limit_caches_nothing_and_reclaim_finds_nothing(
        self, alloc, base
    ):
        """A put rejected by the limit leaves no empty bucket behind, so
        reclaim, which indexes its buckets by the policy's victim, has
        nothing to walk."""
        cache = IdlePool(per_function_limit=0)
        assert not cache.put("fn", idle_uc(alloc, base))
        assert len(cache) == 0 and cache.function_count("fn") == 0
        assert cache.items() == []
        assert cache.reclaim_pages(1) == 0

    def test_lifo_within_function(self, alloc, base):
        # Hot hits take the most recently idled UC; the opposite end
        # (oldest) is left for the OOM daemon to reclaim.
        cache = IdlePool()
        first = idle_uc(alloc, base)
        second = idle_uc(alloc, base)
        cache.put("fn", first)
        cache.put("fn", second)
        assert cache.pop("fn") is second
        assert cache.pop("fn") is first

    def test_reuse_and_reclaim_take_opposite_ends(self, alloc, base):
        cache = IdlePool()
        oldest, middle, newest = (idle_uc(alloc, base) for _ in range(3))
        for uc in (oldest, middle, newest):
            cache.put("fn", uc)
        assert cache.pop("fn") is newest
        cache.put("fn", newest)
        # An eviction hands the oldest back, the caller's to destroy ...
        assert cache.evict() is oldest
        assert not oldest.destroyed
        # ... and reclaim destroys the oldest left.
        cache.reclaim_pages(1)
        assert middle.destroyed
        assert not newest.destroyed
        assert cache.stats == IdlePoolStats(hot_hits=1, reclaimed=2)
        oldest.destroy()

    def test_function_count(self, alloc, base):
        cache = IdlePool()
        cache.put("a", idle_uc(alloc, base, "a"))
        cache.put("a", idle_uc(alloc, base, "a"))
        assert cache.function_count("a") == 2
        assert cache.function_count("b") == 0


class TestReclamation:
    def test_reclaim_destroys_lru_first(self, alloc, base):
        cache = IdlePool()
        old = idle_uc(alloc, base, "old")
        new = idle_uc(alloc, base, "new")
        cache.put("old", old)
        cache.put("new", new)
        freed = cache.reclaim_pages(1)
        assert freed > 0
        assert old.destroyed
        assert not new.destroyed
        assert cache.stats.reclaimed == 1

    def test_reclaim_until_enough(self, alloc, base):
        cache = IdlePool()
        ucs = [idle_uc(alloc, base, f"fn{i}") for i in range(5)]
        for index, uc in enumerate(ucs):
            cache.put(f"fn{index}", uc)
        per_uc = ucs[0].space.resident_pages
        cache.reclaim_pages(3 * per_uc)
        destroyed = sum(1 for uc in ucs if uc.destroyed)
        assert destroyed == 3
        assert len(cache) == 2

    def test_reclaim_empty_cache_returns_zero(self):
        assert IdlePool().reclaim_pages(100) == 0

    def test_drop_function(self, alloc, base):
        cache = IdlePool()
        kept = idle_uc(alloc, base, "keep")
        dropped = [idle_uc(alloc, base, "drop") for _ in range(3)]
        cache.put("keep", kept)
        for uc in dropped:
            cache.put("drop", uc)
        assert cache.drop_function("drop") == 3
        assert all(uc.destroyed for uc in dropped)
        assert not kept.destroyed
        assert cache.drop_function("absent") == 0

    def test_clear(self, alloc, base):
        cache = IdlePool()
        cache.put("a", idle_uc(alloc, base, "a"))
        cache.put("b", idle_uc(alloc, base, "b"))
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_idle_gauge_tracks_every_mutator(self, alloc, base):
        """Regression: reclaim/drop/clear must emit the idle-UC gauge.

        They used to mutate ``_count`` silently, so traces showed
        phantom idle UCs after every OOM reclaim.
        """
        tracer = Tracer()
        enable(tracer)
        try:
            cache = IdlePool()
            cache.put("a", idle_uc(alloc, base, "a"))
            cache.put("a", idle_uc(alloc, base, "a"))
            cache.put("b", idle_uc(alloc, base, "b"))
            cache.pop("a")
            cache.reclaim_pages(1)  # eats one UC (LRU function first: "b")
            cache.drop_function("a")
            cache.put("c", idle_uc(alloc, base, "c"))
            cache.clear()

            def last_gauge() -> float:
                samples = [
                    s for s in tracer.counters if s.name == "uc_cache.idle_ucs"
                ]
                assert samples, "no idle-UC gauge samples recorded"
                return samples[-1].value

            assert len(cache) == 0
            assert last_gauge() == 0.0
            # The gauge must have tracked the live count at every step:
            # replaying the mutation sequence, each emission matches.
            values = [
                s.value for s in tracer.counters
                if s.name == "uc_cache.idle_ucs"
            ]
            # put, put, put, pop, reclaim, drop, put, clear(=drop)
            assert values == [1.0, 2.0, 3.0, 2.0, 1.0, 0.0, 1.0, 0.0]
        finally:
            disable()

    def test_drop_releases_snapshot_reference(self, alloc, base):
        cache = IdlePool()
        refs_before = base.refcount
        cache.put("fn", idle_uc(alloc, base))
        assert base.refcount == refs_before + 1
        cache.drop_function("fn")
        assert base.refcount == refs_before
