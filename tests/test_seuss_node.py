"""SeussNode integration tests: paths, latencies, AO, OOM behaviour."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.faas.records import InvocationPath
from repro.seuss.config import AOLevel, SeussConfig
from repro.seuss.node import SeussNode
from repro.seuss.security import attack_surface_reduction_factor, interface_comparison
from repro.sim import Environment, Interrupt
from repro.workload.functions import nop_function
from tests.conftest import make_seuss_node


class TestInitialization:
    def test_initialize_builds_runtime_snapshot(self, seuss_node):
        record = seuss_node.runtime_record("nodejs")
        assert record.snapshot.size_mb == pytest.approx(114.5, abs=0.05)
        assert record.ao_report.mb_added == pytest.approx(4.9, abs=0.05)

    def test_initialization_takes_hundreds_of_ms(self, env):
        node = SeussNode(env)
        node.initialize_sync()
        assert 500 < env.now < 2000  # boot + AO, paid once

    def test_invoke_before_initialize_rejected(self, env):
        node = SeussNode(env)
        with pytest.raises(ConfigError):
            node.invoke(nop_function())

    def test_unknown_runtime_rejected(self, seuss_node):
        with pytest.raises(ConfigError):
            seuss_node.runtime_record("ruby")

    def test_multi_runtime_node(self):
        node = make_seuss_node(runtimes=("nodejs", "python"))
        assert set(node.runtime_records) == {"nodejs", "python"}
        python_snapshot = node.runtime_record("python").snapshot
        nodejs_snapshot = node.runtime_record("nodejs").snapshot
        assert python_snapshot.size_mb < nodejs_snapshot.size_mb


class TestPaths:
    def test_first_invocation_is_cold(self, seuss_node):
        result = seuss_node.invoke_sync(nop_function())
        assert result.path is InvocationPath.COLD
        assert result.success
        assert result.latency_ms == pytest.approx(7.5, abs=0.05)

    def test_second_invocation_is_hot(self, seuss_node):
        fn = nop_function()
        seuss_node.invoke_sync(fn)
        result = seuss_node.invoke_sync(fn)
        assert result.path is InvocationPath.HOT
        assert result.latency_ms == pytest.approx(0.8, abs=0.02)

    def test_warm_after_idle_reclaim(self, seuss_node):
        fn = nop_function()
        seuss_node.invoke_sync(fn)
        seuss_node.uc_cache.drop_function(fn.key)
        result = seuss_node.invoke_sync(fn)
        assert result.path is InvocationPath.WARM
        assert result.latency_ms == pytest.approx(3.5, abs=0.05)

    def test_cold_populates_snapshot_cache(self, seuss_node):
        fn = nop_function()
        seuss_node.invoke_sync(fn)
        assert fn.key in seuss_node.snapshot_cache

    def test_path_counters(self, seuss_node):
        fn = nop_function()
        seuss_node.invoke_sync(fn)
        seuss_node.invoke_sync(fn)
        seuss_node.uc_cache.drop_function(fn.key)
        seuss_node.invoke_sync(fn)
        assert seuss_node.stats.cold == 1
        assert seuss_node.stats.hot == 1
        assert seuss_node.stats.warm == 1

    def test_breakdown_has_expected_stages(self, seuss_node):
        result = seuss_node.invoke_sync(nop_function())
        for stage in ("uc_create", "connect", "import_compile", "snapshot_capture"):
            assert stage in result.breakdown

    def test_io_bound_function_releases_core(self, seuss_node):
        from repro.workload.functions import io_bound_function

        fn = io_bound_function("io-test")
        result = seuss_node.invoke_sync(fn)
        assert result.success
        assert result.breakdown["io_wait"] == 250.0
        # Latency is dominated by the external block, not node work.
        assert result.latency_ms > 250

    def test_disable_idle_caching_forces_warm(self):
        node = make_seuss_node(cache_idle_ucs=False)
        fn = nop_function()
        node.invoke_sync(fn)
        result = node.invoke_sync(fn)
        assert result.path is InvocationPath.WARM


class TestAOConfigs:
    @pytest.mark.parametrize(
        "level,expected_cold",
        [
            (AOLevel.NONE, 42.0),
            (AOLevel.NETWORK, 16.8),
            (AOLevel.NETWORK_AND_INTERPRETER, 7.5),
        ],
    )
    def test_cold_latency_per_ao_level(self, level, expected_cold):
        node = make_seuss_node(ao_level=level)
        result = node.invoke_sync(nop_function())
        assert result.latency_ms == pytest.approx(expected_cold, abs=0.3)

    def test_ao_halves_function_snapshot(self):
        fn = nop_function()
        warmed = make_seuss_node(AOLevel.NETWORK_AND_INTERPRETER)
        unwarmed = make_seuss_node(AOLevel.NONE)
        warmed.invoke_sync(fn)
        unwarmed.invoke_sync(fn)
        small = warmed.snapshot_cache.get(fn.key).size_mb
        big = unwarmed.snapshot_cache.get(fn.key).size_mb
        assert big / small == pytest.approx(2.4, abs=0.1)  # 4.8 / 2.0


class TestMemoryPressure:
    def test_oom_daemon_reclaims_idle_ucs(self):
        # A node so small that idle UCs must be reclaimed to keep going.
        node = make_seuss_node(memory_gb=0.5, system_reserved_mb=16.0,
                               snapshot_cache_budget_mb=200.0,
                               oom_threshold_mb=8.0)
        for index in range(140):
            result = node.invoke_sync(nop_function(owner=f"c{index}"))
            assert result.success, result.error
        assert node.uc_cache.stats.reclaimed > 0

    def test_snapshot_cache_eviction_under_budget(self):
        node = make_seuss_node(snapshot_cache_budget_mb=10.0)
        for index in range(8):
            node.invoke_sync(nop_function(owner=f"c{index}"))
        # ~2.2 MB per entry: only ~4 snapshots fit in 10 MB.
        assert len(node.snapshot_cache) <= 4
        assert node.snapshot_cache.stats.evictions > 0

    def test_orphan_duplicate_snapshot_reaped(self, seuss_node):
        """Two concurrent colds of one function leak no snapshot."""
        env = seuss_node.env
        fn = nop_function()
        first = seuss_node.invoke(fn)
        second = seuss_node.invoke(fn)
        env.run(until=env.all_of([first, second]))
        assert first.value.path is InvocationPath.COLD
        assert second.value.path is InvocationPath.COLD
        # Exactly one snapshot survives in the cache; destroy both idle
        # UCs and confirm no snapshot frames leak beyond the cached one.
        cached = seuss_node.snapshot_cache.get(fn.key)
        seuss_node.uc_cache.drop_function(fn.key)
        assert cached.refcount == 1  # only the cache's reference


class TestIdleDeploy:
    def test_an_interrupt_while_queued_for_a_core_drops_the_claim(self, seuss_node):
        """A deploy interrupted while it waits for a core takes its claim
        off the queue: once every other deploy is done, no core is held."""
        env = seuss_node.env
        cores = seuss_node.cores

        def deploy():
            try:
                return (yield from seuss_node.deploy_idle_instance())
            except Interrupt:
                return None

        deploys = [env.process(deploy()) for _ in range(cores.capacity + 1)]
        env.run(until=env.now)  # every deploy has claimed or queued
        assert cores.count == cores.capacity and len(cores.queue) == 1
        deploys[-1].interrupt()
        env.run()
        assert deploys[-1].value is None
        assert all(deploy.value is not None for deploy in deploys[:-1])
        assert cores.count == 0 and not cores.queue

    def test_an_interrupt_after_the_uc_is_created_destroys_it(self, seuss_node):
        """A deploy interrupted 0.01 ms into ``uc_create`` destroys the
        UC it made (nothing else holds it): its page tables go back to
        the allocator and the core is released."""
        env = seuss_node.env
        allocator = seuss_node.allocator
        before = allocator.stats()

        def deploy():
            try:
                return (yield from seuss_node.deploy_idle_instance())
            except Interrupt:
                return None

        process = env.process(deploy())
        env.run(until=env.now + 0.01)
        assert allocator.category_pages("uc_page_table") > 0  # the UC exists
        process.interrupt()
        env.run()
        assert process.value is None
        assert allocator.category_pages("uc_page_table") == 0
        assert allocator.stats() == before
        assert seuss_node.cores.count == 0 and not seuss_node.cores.queue


class TestSecurityModel:
    def test_attack_surface_reduction(self):
        assert attack_surface_reduction_factor() > 25

    def test_profiles(self):
        seuss, docker = interface_comparison()
        assert seuss.narrow_interface
        assert not docker.narrow_interface
        assert seuss.hardware_enforced
        assert not seuss.retroactive_dedup
        assert docker.retroactive_dedup


class TestStageTimeline:
    """Figure 1: the stages of an invocation, with real timestamps."""

    def test_cold_path_passes_every_stage_in_order(self, seuss_node):
        from repro.faas.records import InvocationStage as S

        result = seuss_node.invoke_sync(nop_function(owner="stages"))
        order = result.stages_in_order()
        assert order == [
            S.REQUEST_RECEIVED,
            S.ENVIRONMENT_CREATED,
            S.RUNTIME_INITIALIZED,
            S.CODE_IMPORTED,
            S.ARGUMENTS_LOADED,
            S.EXECUTED,
            S.RESULT_RETURNED,
        ]
        times = [result.stage_times[stage] for stage in order]
        assert times == sorted(times)

    def test_hot_path_skips_environment_stages(self, seuss_node):
        from repro.faas.records import InvocationStage as S

        fn = nop_function(owner="stages-hot")
        seuss_node.invoke_sync(fn)
        hot = seuss_node.invoke_sync(fn)
        assert S.ENVIRONMENT_CREATED not in hot.stage_times
        assert S.CODE_IMPORTED in hot.stage_times
        assert S.RESULT_RETURNED in hot.stage_times

    def test_stage_stamps_make_no_python_level_hash_call(self, seuss_node):
        """Stage keys hash by identity, in C: stamping a stage costs no
        Python-level ``__hash__`` (``Enum.__hash__`` cost 5 per hot
        invocation)."""
        import cProfile
        import pstats

        fn = nop_function(owner="stages-hash")
        seuss_node.invoke_sync(fn)
        profile = cProfile.Profile()
        profile.enable()
        hot = seuss_node.invoke_sync(fn)
        profile.disable()
        assert hot.path is InvocationPath.HOT
        assert len(hot.stage_times) == 5
        hashes = [
            (filename, name)
            for filename, _, name in pstats.Stats(profile).stats
            if name == "__hash__"
        ]
        assert hashes == []

    def test_stage_span_matches_latency(self, seuss_node):
        from repro.faas.records import InvocationStage as S

        result = seuss_node.invoke_sync(nop_function(owner="stages-span"))
        span = (
            result.stage_times[S.RESULT_RETURNED]
            - result.stage_times[S.REQUEST_RECEIVED]
        )
        assert span == pytest.approx(result.latency_ms)
