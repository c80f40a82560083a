"""UnikernelContext lifecycle tests."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.mem.frames import FrameAllocator
from repro.unikernel.context import UCLifecycleError, UCState, UnikernelContext
from repro.unikernel.interpreters import NODEJS, PYTHON


@pytest.fixture
def alloc():
    return FrameAllocator(10_000_000)


@pytest.fixture
def base_snapshot(alloc):
    uc = UnikernelContext(alloc, NODEJS)
    uc.boot()
    uc.warm_network()
    uc.warm_interpreter()
    snapshot = uc.capture_snapshot("nodejs-runtime")
    snapshot.retain()
    uc.destroy()
    return snapshot


class TestBoot:
    def test_boot_writes_base_image(self, alloc):
        uc = UnikernelContext(alloc, NODEJS)
        result = uc.boot()
        assert result.pages_written == NODEJS.base_image_pages
        assert uc.state is UCState.BOOTED

    def test_boot_twice_rejected(self, alloc):
        uc = UnikernelContext(alloc, NODEJS)
        uc.boot()
        with pytest.raises(UCLifecycleError):
            uc.boot()

    def test_deployed_uc_cannot_boot(self, alloc, base_snapshot):
        uc = UnikernelContext(alloc, NODEJS, base=base_snapshot)
        with pytest.raises(UCLifecycleError):
            uc.boot()

    def test_boot_crosses_hypercall_boundary(self, alloc):
        uc = UnikernelContext(alloc, NODEJS)
        uc.boot()
        assert sum(uc.hypercalls.values()) > 0


class TestColdPath:
    def test_full_cold_sequence(self, alloc, base_snapshot):
        uc = UnikernelContext(alloc, NODEJS, base=base_snapshot)
        uc.start_listening()
        uc.accept_connection()
        uc.import_function("client/nop", 0.1)
        snapshot = uc.capture_snapshot("fn:client/nop")
        uc.import_args()
        uc.execute(38)
        assert uc.state is UCState.IDLE
        assert uc.completed_invocations == 1
        assert snapshot.parent is base_snapshot
        # Full-AO NOP function snapshot is ~2 MB (Table 1).
        assert snapshot.size_mb == pytest.approx(2.0, abs=0.05)

    def test_out_of_order_operations_rejected(self, alloc, base_snapshot):
        uc = UnikernelContext(alloc, NODEJS, base=base_snapshot)
        with pytest.raises(UCLifecycleError):
            uc.accept_connection()  # must listen first
        uc.start_listening()
        with pytest.raises(UCLifecycleError):
            uc.import_args()  # must connect + import first

    def test_execute_without_function_rejected(self, alloc, base_snapshot):
        uc = UnikernelContext(alloc, NODEJS, base=base_snapshot)
        uc.start_listening()
        uc.accept_connection()
        with pytest.raises(UCLifecycleError):
            uc.execute(10)

    def test_double_import_rejected(self, alloc, base_snapshot):
        uc = UnikernelContext(alloc, NODEJS, base=base_snapshot)
        uc.start_listening()
        uc.accept_connection()
        uc.import_function("a", 0.1)
        with pytest.raises(UCLifecycleError):
            uc.import_function("b", 0.1)


class TestWarmPath:
    def test_restore_skips_import(self, alloc, base_snapshot):
        cold = UnikernelContext(alloc, NODEJS, base=base_snapshot)
        cold.start_listening()
        cold.accept_connection()
        cold.import_function("fn", 0.1)
        fn_snapshot = cold.capture_snapshot("fn")
        fn_snapshot.retain()

        warm = UnikernelContext(alloc, NODEJS, base=fn_snapshot)
        warm.start_listening()
        warm.accept_connection()
        warm.restore_function("fn")
        warm.import_args()
        warm.execute(38)
        assert warm.bound_function == "fn"
        assert warm.completed_invocations == 1

    def test_warm_deploy_faults_on_snapshot_pages(self, alloc, base_snapshot):
        cold = UnikernelContext(alloc, NODEJS, base=base_snapshot)
        cold.start_listening()
        cold.accept_connection()
        cold.import_function("fn", 0.1)
        fn_snapshot = cold.capture_snapshot("fn")
        fn_snapshot.retain()

        warm = UnikernelContext(alloc, NODEJS, base=fn_snapshot)
        listen = warm.start_listening()
        # Listen pages exist in the fn snapshot; rewriting them is COW.
        assert listen.pages_copied == NODEJS.listen_pages


class TestHotPath:
    def test_repeat_execution_no_new_faults(self, alloc, base_snapshot):
        uc = UnikernelContext(alloc, NODEJS, base=base_snapshot)
        uc.start_listening()
        uc.accept_connection()
        uc.import_function("fn", 0.1)
        uc.import_args()
        first = uc.execute(38)
        assert first.pages_copied > 0
        uc.import_args()
        second = uc.execute(38)
        assert second.pages_copied == 0  # pages already private
        assert uc.completed_invocations == 2


class TestFirstUseWarming:
    def test_unwarmed_base_pays_first_use_writes(self, alloc):
        boot_uc = UnikernelContext(alloc, NODEJS)
        boot_uc.boot()
        cold_base = boot_uc.capture_snapshot("no-ao")
        cold_base.retain()

        uc = UnikernelContext(alloc, NODEJS, base=cold_base)
        uc.start_listening()
        connect = uc.accept_connection()
        # Without network AO the first connection writes the network
        # first-use extent on top of the connection scratch.
        assert connect.pages_written == NODEJS.ao_network_pages + NODEJS.conn_pages
        import_result = uc.import_function("fn", 0.1)
        assert (
            import_result.pages_written
            == NODEJS.ao_interpreter_pages + NODEJS.import_base_pages
        )

    def test_warmed_base_skips_first_use_writes(self, alloc, base_snapshot):
        uc = UnikernelContext(alloc, NODEJS, base=base_snapshot)
        uc.start_listening()
        connect = uc.accept_connection()
        assert connect.pages_written == NODEJS.conn_pages
        import_result = uc.import_function("fn", 0.1)
        assert import_result.pages_written == NODEJS.import_base_pages

    def test_ao_passes_write_expected_extents(self, alloc):
        uc = UnikernelContext(alloc, NODEJS)
        uc.boot()
        net = uc.warm_network()
        interp = uc.warm_interpreter()
        assert net.pages_written == NODEJS.ao_network_pages
        assert (
            interp.pages_written
            == NODEJS.ao_interpreter_pages + NODEJS.ao_dummy_pages
        )


class TestDestroy:
    def test_destroy_releases_memory(self, alloc, base_snapshot):
        before = alloc.allocated_pages
        uc = UnikernelContext(alloc, NODEJS, base=base_snapshot)
        uc.start_listening()
        freed = uc.destroy()
        assert freed > 0
        assert alloc.allocated_pages == before
        assert uc.destroyed

    def test_destroy_idempotent(self, alloc, base_snapshot):
        uc = UnikernelContext(alloc, NODEJS, base=base_snapshot)
        uc.destroy()
        assert uc.destroy() == 0


class TestIdentity:
    def test_all_ucs_share_network_identity(self, alloc, base_snapshot):
        """Identical IP/MAC enables redeploy anywhere (§6 Networking)."""
        first = UnikernelContext(alloc, NODEJS, base=base_snapshot)
        second = UnikernelContext(alloc, NODEJS, base=base_snapshot)
        assert first.guest_ip == second.guest_ip
        assert first.guest_mac == second.guest_mac
        assert first.uc_id != second.uc_id

    def test_python_runtime_contexts_work_too(self, alloc):
        uc = UnikernelContext(alloc, PYTHON)
        uc.boot()
        snapshot = uc.capture_snapshot("python-runtime")
        assert snapshot.size_mb == pytest.approx(
            PYTHON.base_image_pages / 256, abs=0.01
        )

    def test_snapshot_checksum_is_the_same_in_every_process(self):
        """The captured instruction pointer, and so the checksum, is a
        digest of the snapshot's name and trigger, not a salted hash."""
        script = (
            "from repro.seuss.node import SeussNode;"
            "from repro.sim import Environment;"
            "from repro.workload.functions import nop_function;"
            "node = SeussNode(Environment()); node.initialize_sync();"
            "fn = nop_function(); node.invoke_sync(fn);"
            "print(node.snapshot_cache.get(fn.key).checksum)"
        )
        outputs = set()
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
                check=True,
            )
            outputs.add(proc.stdout.strip())
        assert len(outputs) == 1
