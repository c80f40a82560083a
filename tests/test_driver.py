"""The invocation driver inside a UC: protocol, page tallies, first-use
logic, and what one idle UC costs the collector."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.mem.frames import FrameAllocator
from repro.unikernel.context import (
    UCLifecycleError,
    UCState,
    UnikernelContext,
    layout_for,
)
from repro.unikernel.interpreters import NODEJS
from repro.workload.functions import nop_function
from tests.census import tracked_census


@pytest.fixture
def alloc():
    return FrameAllocator(10_000_000)


@pytest.fixture
def base(alloc):
    """A fully-AO'd runtime snapshot."""
    boot = UnikernelContext(alloc, NODEJS)
    boot.boot()
    boot.warm_network()
    boot.warm_interpreter()
    snapshot = boot.capture_snapshot("base")
    snapshot.retain()
    return snapshot


@pytest.fixture
def deployed(alloc, base):
    """A UC deployed from a fully-AO'd base, not yet listening."""
    return UnikernelContext(alloc, NODEJS, base=base)


class TestProtocol:
    def test_state_progression(self, deployed):
        uc = deployed
        assert uc.state is UCState.CREATED
        uc.start_listening()
        assert uc.state is UCState.LISTENING
        uc.accept_connection()
        assert uc.state is UCState.CONNECTED
        uc.import_function("fn", 0.1)
        assert uc.state is UCState.IDLE
        uc.import_args()
        uc.execute(38)
        assert uc.state is UCState.IDLE  # back after running

    def test_accept_before_listen_rejected(self, deployed):
        with pytest.raises(UCLifecycleError):
            deployed.accept_connection()

    def test_import_before_connect_rejected(self, deployed):
        deployed.start_listening()
        with pytest.raises(UCLifecycleError):
            deployed.import_function("fn", 0.1)

    def test_execute_before_import_rejected(self, deployed):
        deployed.start_listening()
        deployed.accept_connection()
        with pytest.raises(UCLifecycleError):
            deployed.execute(10)

    def test_restore_ready_requires_connected(self, deployed):
        with pytest.raises(UCLifecycleError):
            deployed.restore_function("fn")
        deployed.start_listening()
        deployed.accept_connection()
        deployed.restore_function("fn")
        assert deployed.state is UCState.IDLE
        assert deployed.bound_function == "fn"


#: Each lifecycle command and the states that accept it.
ACCEPTED = {
    "boot": (UCState.CREATED,),
    "start_listening": (UCState.CREATED, UCState.BOOTED),
    "accept_connection": (UCState.LISTENING,),
    "import_function": (UCState.CONNECTED,),
    "restore_function": (UCState.CONNECTED,),
    "import_args": (UCState.IDLE,),
    "execute": (UCState.IDLE,),
    "warm_network": (UCState.BOOTED, UCState.LISTENING),
    "warm_interpreter": (UCState.BOOTED, UCState.LISTENING),
}

COMMAND_ARGS = {
    "import_function": ("fn", 0.1),
    "restore_function": ("fn",),
    "execute": (38,),
}

#: The step that moves a deployed UC one state along its lifecycle.
NEXT_STEP = {
    UCState.CREATED: lambda uc: uc.start_listening(),
    UCState.LISTENING: lambda uc: uc.accept_connection(),
    UCState.CONNECTED: lambda uc: uc.restore_function("fn"),
    # RUNNING is only observable mid-execute, so it is set directly.
    UCState.IDLE: lambda uc: setattr(uc, "state", UCState.RUNNING),
}


def uc_in(state, alloc, base):
    """A UC driven through its lifecycle into ``state``."""
    if state is UCState.BOOTED:
        uc = UnikernelContext(alloc, NODEJS)
        uc.boot()
        return uc
    uc = UnikernelContext(alloc, NODEJS, base=base)
    if state is UCState.DESTROYED:
        uc.destroy()
    while uc.state is not state:
        NEXT_STEP[uc.state](uc)
    return uc


class TestStateTable:
    @pytest.mark.parametrize("command", sorted(ACCEPTED))
    def test_command_rejected_in_every_other_state(self, command, alloc, base):
        rejected = [state for state in UCState if state not in ACCEPTED[command]]
        assert rejected
        for state in rejected:
            uc = uc_in(state, alloc, base)
            crossings = dict(uc.hypercalls)
            with pytest.raises(UCLifecycleError):
                getattr(uc, command)(*COMMAND_ARGS.get(command, ()))
            assert uc.state is state, (command, state)
            assert uc.hypercalls == crossings, (command, state)


class TestStats:
    def test_page_tallies_accumulate(self, deployed):
        results = [
            deployed.start_listening(),
            deployed.accept_connection(),
            deployed.import_function("fn", 0.1),
        ]
        written = sum(result.pages_written for result in results)
        assert written == (
            NODEJS.listen_pages + NODEJS.conn_pages + NODEJS.import_base_pages
        )
        # Deployed from a snapshot: every write was a COW copy.
        assert sum(result.pages_copied for result in results) == written

    def test_first_use_events_empty_when_warmed(self, deployed):
        deployed.start_listening()
        deployed.accept_connection()
        deployed.import_function("fn", 0.1)
        deployed.execute(10)
        assert deployed.first_use_events == {}

    def test_first_use_events_recorded_when_unwarmed(self, alloc):
        boot = UnikernelContext(alloc, NODEJS)
        boot.boot()
        base = boot.capture_snapshot("unwarmed")
        base.retain()
        uc = UnikernelContext(alloc, NODEJS, base=base)
        uc.start_listening()
        uc.accept_connection()
        uc.import_function("fn", 0.1)
        assert uc.first_use_events == {"ao_network": 1, "ao_interpreter": 1}


class TestLayoutCache:
    def test_layouts_shared_per_runtime(self):
        assert layout_for(NODEJS) is layout_for(NODEJS)


class TestCensus:
    def test_idle_uc_is_one_object_with_its_memory_and_channel(self, seuss_node):
        fn = nop_function()
        seuss_node.invoke_sync(fn)
        (uc,) = dict(seuss_node.uc_cache.items())[fn.key]
        # Both page sets are canonical, shared with every idle UC of the
        # same shape, so the walk does not count them.
        assert uc.space._private.canonical and uc.space._dirty.canonical
        assert tracked_census(uc) == Counter(
            UnikernelContext=1, AddressSpace=1, Channel=1
        )
        assert not uc.channel.closed
