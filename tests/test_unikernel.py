"""Solo5, layout, interpreter-spec, and rumprun-boot tests."""

from __future__ import annotations

import pytest

from repro.costs import SeussCostModel
from repro.errors import ConfigError, IsolationError
from repro.mem.frames import FrameAllocator
from repro.unikernel.context import UnikernelContext
from repro.unikernel.interpreters import (
    NODEJS,
    PYTHON,
    RuntimeSpec,
    get_runtime,
    register_runtime,
    registered_runtimes,
)
from repro.unikernel.layout import MemoryLayout, REGION_ALIGN_PAGES
from repro.unikernel.rumprun import boot_stages
from repro.unikernel.solo5 import (
    DOCKER_SECCOMP_SYSCALL_COUNT,
    SOLO5_HYPERCALLS,
    check_hypercall,
)


class TestSolo5:
    def test_exactly_twelve_hypercalls(self):
        assert len(SOLO5_HYPERCALLS) == 12

    def test_interface_counts_crossings(self):
        uc = UnikernelContext(FrameAllocator(1_000), NODEJS)
        uc.hypercall("netread")
        uc.hypercall("netread")
        uc.hypercall("poll")
        assert uc.hypercalls == {"netread": 2, "poll": 1}
        assert sum(uc.hypercalls.values()) == 3

    def test_unknown_hypercall_breaches_isolation(self):
        with pytest.raises(IsolationError):
            check_hypercall("open")  # a Linux syscall, not a hypercall
        uc = UnikernelContext(FrameAllocator(1_000), NODEJS)
        with pytest.raises(IsolationError):
            uc.hypercall("open")
        assert uc.hypercalls == {}

    def test_surface_comparison_with_docker(self):
        assert len(SOLO5_HYPERCALLS) == 12
        assert DOCKER_SECCOMP_SYSCALL_COUNT > 300
        assert DOCKER_SECCOMP_SYSCALL_COUNT / len(SOLO5_HYPERCALLS) > 25

    def test_allows_query(self):
        check_hypercall("walltime")
        with pytest.raises(IsolationError):
            check_hypercall("fork")


class TestLayout:
    def test_regions_are_disjoint_and_aligned(self):
        layout = NODEJS.build_layout()
        regions = sorted(layout, key=lambda r: r.start)
        for region in regions:
            assert region.start % REGION_ALIGN_PAGES == 0
        for first, second in zip(regions, regions[1:]):
            assert first.stop <= second.start

    def test_region_lookup(self):
        layout = NODEJS.build_layout()
        assert layout.region("kernel").npages == NODEJS.kernel_pages
        assert "interpreter" in layout
        with pytest.raises(ConfigError):
            layout.region("nonexistent")

    def test_duplicate_region_rejected(self):
        layout = MemoryLayout()
        layout.add("a", 10)
        with pytest.raises(ConfigError):
            layout.add("a", 10)

    def test_empty_region_rejected(self):
        with pytest.raises(ConfigError):
            MemoryLayout().add("empty", 0)

    def test_total_vs_span(self):
        layout = MemoryLayout()
        layout.add("a", 10)
        layout.add("b", 10)
        assert layout.total_pages == 20
        assert layout.span_pages == 2 * REGION_ALIGN_PAGES


class TestRuntimeSpecs:
    def test_nodejs_base_image_is_109_6_mb(self):
        assert NODEJS.base_image_pages / 256 == pytest.approx(109.6, abs=0.01)

    def test_nodejs_ao_adds_4_9_mb(self):
        assert NODEJS.ao_pages / 256 == pytest.approx(4.9, abs=0.01)

    def test_import_pages_nop_floor(self):
        assert NODEJS.import_pages_for(0.1) == NODEJS.import_base_pages
        assert NODEJS.import_pages_for(0.0) == NODEJS.import_base_pages

    def test_import_pages_grow_with_code(self):
        assert NODEJS.import_pages_for(100) > NODEJS.import_pages_for(1)

    def test_import_pages_capped_at_region(self):
        assert NODEJS.import_pages_for(10**9) == NODEJS.import_region_pages

    def test_negative_code_size_rejected(self):
        with pytest.raises(ConfigError):
            NODEJS.import_pages_for(-1)

    def test_nodejs_does_not_fork_python_does(self):
        # The §8 contrast with fork-based systems.
        assert not NODEJS.supports_fork
        assert PYTHON.supports_fork

    def test_registry_lookup(self):
        assert get_runtime("nodejs") is NODEJS
        assert get_runtime("python") is PYTHON
        with pytest.raises(ConfigError):
            get_runtime("ruby")
        assert "nodejs" in registered_runtimes()

    def test_register_custom_runtime(self):
        custom = RuntimeSpec(
            name="testlang",
            language="test",
            supports_fork=False,
            interpreter_init_ms=100.0,
            kernel_pages=7680,
            interpreter_pages=1000,
            driver_pages=100,
            ao_network_pages=486,
            ao_interpreter_pages=50,
            ao_dummy_pages=50,
            listen_pages=100,
            conn_pages=51,
            args_pages=8,
            import_base_pages=32,
            import_pages_per_kb=8,
        )
        register_runtime(custom)
        assert get_runtime("testlang") is custom
        with pytest.raises(ConfigError):
            register_runtime(custom)  # duplicates rejected

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            RuntimeSpec(
                name="bad",
                language="bad",
                supports_fork=False,
                interpreter_init_ms=1.0,
                kernel_pages=0,  # invalid
                interpreter_pages=1,
                driver_pages=1,
                ao_network_pages=1,
                ao_interpreter_pages=1,
                ao_dummy_pages=1,
                listen_pages=1,
                conn_pages=1,
                args_pages=1,
                import_base_pages=1,
                import_pages_per_kb=1,
            )


class TestBoot:
    def test_boot_takes_hundreds_of_ms(self):
        report = boot_stages(NODEJS, SeussCostModel())
        assert 500 < report.total_ms < 1500

    def test_interpreter_dominates_nodejs_boot(self):
        report = boot_stages(NODEJS, SeussCostModel())
        assert report.stage_ms("interpreter_init") == NODEJS.interpreter_init_ms
        assert report.stage_ms("interpreter_init") > report.total_ms / 2

    def test_python_boots_faster_than_node(self):
        costs = SeussCostModel()
        assert boot_stages(PYTHON, costs).total_ms < boot_stages(NODEJS, costs).total_ms

    def test_unknown_stage_raises(self):
        report = boot_stages(NODEJS, SeussCostModel())
        with pytest.raises(KeyError):
            report.stage_ms("warp_drive")
