"""Unikernel contexts: the unit of deployment.

A :class:`UnikernelContext` (UC) is one object holding an address
space, the in-UC OpenWhisk invocation driver and the Solo5 hypercall
boundary.  Its lifecycle follows Figure 2: boot (only ever done once per
runtime, to build the base snapshot), deploy from a snapshot, listen,
connect, import code, capture a function snapshot, execute, and either
sit idle for hot reuse or be destroyed.

The driver is the script the prototype boots the interpreter into: it
opens an HTTP/REST endpoint, accepts a connection from SEUSS OS, and
services ``import code`` / ``run args`` commands (§4).  Each lifecycle
method performs that command's page writes and hypercalls, ordered by
:class:`UCState` alone.  First-use warming is modelled mechanistically:
the network-stack and interpreter "first use" extents (``ao_network`` /
``ao_interpreter``) are written the first time the relevant path runs
*unless* they are already mapped, which is exactly what anticipatory
optimization achieves by pre-writing them into the base snapshot.

All methods here perform the *memory mechanics* (page writes, COW
faults, snapshot capture).  Time is charged by the layer that owns the
clock (:mod:`repro.seuss.invoker`), keeping mechanism and cost model
separate.
"""

from __future__ import annotations

import itertools
import zlib
from enum import Enum
from typing import Dict, Optional

from repro.errors import ReproError, SnapshotError
from repro.mem.address_space import AddressSpace, WriteResult
from repro.mem.frames import FrameAllocator
from repro.mem.snapshot import CpuState, Snapshot
from repro.unikernel import interpreters as regions
from repro.unikernel.interpreters import RuntimeSpec
from repro.unikernel.layout import MemoryLayout
from repro.unikernel.solo5 import SOLO5_HYPERCALLS, check_hypercall

_uc_ids = itertools.count(1)

#: Layouts are immutable once built; share one per runtime.
_LAYOUT_CACHE: Dict[str, MemoryLayout] = {}


def layout_for(runtime: RuntimeSpec) -> MemoryLayout:
    layout = _LAYOUT_CACHE.get(runtime.name)
    if layout is None:
        layout = runtime.build_layout()
        _LAYOUT_CACHE[runtime.name] = layout
    return layout


class UCState(Enum):
    CREATED = "created"
    BOOTED = "booted"
    LISTENING = "listening"
    CONNECTED = "connected"
    IDLE = "idle"  # invocation finished; cached for hot reuse
    RUNNING = "running"
    DESTROYED = "destroyed"


class UCLifecycleError(ReproError):
    """A UC operation was attempted in the wrong state."""


class UnikernelContext:
    """One isolated function-execution environment."""

    __slots__ = (
        "uc_id",
        "name",
        "runtime",
        "layout",
        "space",
        "state",
        "bound_function",
        "completed_invocations",
        "hypercalls",
        "first_use_events",
        "channel",
    )

    # Every UC of a runtime is configured with an identical IP/MAC so
    # snapshots deploy anywhere (§6 "Networking").
    guest_ip = "10.0.0.2"
    guest_mac = "02:00:00:00:00:01"

    def __init__(
        self,
        allocator: FrameAllocator,
        runtime: RuntimeSpec,
        base: Optional[Snapshot] = None,
        name: Optional[str] = None,
        dedup=None,
    ) -> None:
        self.uc_id = next(_uc_ids)
        self.name = name or f"uc-{self.uc_id}"
        self.runtime = runtime
        self.layout = layout_for(runtime)
        self.space = AddressSpace(
            allocator, base=base, name=self.name, dedup=dedup
        )
        self.state = UCState.CREATED
        #: Name of the function whose code is resident (None until a
        #: function is imported or inherited through a fn snapshot).
        self.bound_function: Optional[str] = None
        self.completed_invocations = 0
        #: Solo5 crossings made so far, by hypercall name.
        self.hypercalls: Dict[str, int] = {}
        #: First-use extents this UC had to write, by region name.
        self.first_use_events: Dict[str, int] = {}
        #: The control channel the node's network layer mapped for this
        #: UC (:meth:`repro.net.NodeNetwork.connect_uc`); closed on
        #: :meth:`destroy`.
        self.channel = None

    # -- helpers ---------------------------------------------------------
    def _require(self, *allowed: UCState) -> None:
        """Raise unless the UC is in one of the ``allowed`` states.  The
        lifecycle methods test their state by identity and call this
        only to raise."""
        if self.state not in allowed:
            raise UCLifecycleError(
                f"{self.name}: operation requires state in "
                f"{[s.value for s in allowed]}, currently {self.state.value}"
            )

    def hypercall(self, name: str) -> None:
        """Cross the Solo5 boundary; names outside it raise
        :class:`~repro.errors.IsolationError`."""
        if name not in SOLO5_HYPERCALLS:
            check_hypercall(name)
        self.hypercalls[name] = self.hypercalls.get(name, 0) + 1

    def _write_region(
        self, region_name: str, npages: Optional[int] = None
    ) -> WriteResult:
        region = self.layout.regions[region_name]
        count = region.npages if npages is None else min(npages, region.npages)
        return self.space.write(region.start, count)

    def _ensure_first_use(self, region_name: str) -> WriteResult:
        """Write a first-use extent unless it is already mapped.

        When the extent is present in the snapshot stack (because an AO
        pass pre-wrote it) the path is already warm and nothing is
        written: the mechanism behind Table 2's latency collapse.
        """
        region = self.layout.regions[region_name]
        probe = self.space.read(region.start, region.npages)
        if probe.pages_unmapped == 0:
            return _NOTHING
        events = self.first_use_events
        events[region_name] = events.get(region_name, 0) + 1
        return self.space.write(region.start, region.npages)

    @property
    def destroyed(self) -> bool:
        return self.state is UCState.DESTROYED

    @property
    def resident_mb(self) -> float:
        return self.space.resident_mb

    # -- from-scratch boot (base-snapshot construction only) ----------------
    def boot(self) -> WriteResult:
        """Boot the unikernel + interpreter + driver from nothing.

        Only legal for a UC with no base snapshot; deployed UCs resume
        inside an already-booted image.
        """
        if self.state is not UCState.CREATED:
            self._require(UCState.CREATED)
        if self.space.base is not None:
            raise UCLifecycleError(
                f"{self.name}: booted UCs must not have a base snapshot"
            )
        self.hypercall("mem_info")
        self.hypercall("blkread")  # load the ramdisk image
        total = _NOTHING
        for region_name in (regions.KERNEL, regions.INTERPRETER, regions.DRIVER):
            total = _merge(total, self._write_region(region_name))
        self.state = UCState.BOOTED
        return total

    # -- deployment path (Figure 2) ------------------------------------------
    def start_listening(self) -> WriteResult:
        """(Re)start the driver's HTTP endpoint; runs on every deploy."""
        state = self.state
        if state is not UCState.CREATED and state is not UCState.BOOTED:
            self._require(UCState.CREATED, UCState.BOOTED)
        self.hypercall("netinfo")
        self.hypercall("poll")
        result = self._write_region(regions.LISTEN)
        self.state = UCState.LISTENING
        return result

    def accept_connection(self) -> WriteResult:
        """Accept the control connection from SEUSS OS."""
        if self.state is not UCState.LISTENING:
            self._require(UCState.LISTENING)
        self.hypercall("netread")
        first_use = self._ensure_first_use(regions.AO_NETWORK)
        result = self._write_region(regions.CONN)
        if first_use is not _NOTHING:
            result = _merge(first_use, result)
        self.state = UCState.CONNECTED
        return result

    def import_function(self, function_name: str, code_kb: float) -> WriteResult:
        """Import and compile function source received over the wire
        (cold path only)."""
        if self.state is not UCState.CONNECTED:
            self._require(UCState.CONNECTED)
        if self.bound_function is not None:
            raise UCLifecycleError(
                f"{self.name}: already bound to {self.bound_function!r}"
            )
        pages = self.runtime.import_pages_for(code_kb)
        self.hypercall("netread")
        first_use = self._ensure_first_use(regions.AO_INTERPRETER)
        result = self._write_region(regions.IMPORT, pages)
        if first_use is not _NOTHING:
            result = _merge(first_use, result)
        self.bound_function = function_name
        self.state = UCState.IDLE
        return result

    def restore_function(self, function_name: str) -> None:
        """Resume with code inherited from a function snapshot (warm path).

        The compiled code arrives through the snapshot stack, so the
        driver resumes directly into its ready state: the warm path
        "skips the code import and compilation stages" (§4).
        """
        if self.state is not UCState.CONNECTED:
            self._require(UCState.CONNECTED)
        self.bound_function = function_name
        self.state = UCState.IDLE

    def import_args(self) -> WriteResult:
        """Receive the run arguments for an invocation."""
        if self.state is not UCState.IDLE:
            self._require(UCState.IDLE)
        self.hypercall("netread")
        return self._write_region(regions.ARGS)

    def execute(self, exec_write_pages: int) -> WriteResult:
        """Run the bound function once; writes its run-time heap."""
        if self.state is not UCState.IDLE:
            self._require(UCState.IDLE)
        if self.bound_function is None:
            raise UCLifecycleError(f"{self.name}: no function bound")
        self.state = UCState.RUNNING
        first_use = self._ensure_first_use(regions.AO_INTERPRETER)
        result = self._write_region(regions.EXEC, exec_write_pages)
        if first_use is not _NOTHING:
            result = _merge(first_use, result)
        self.hypercall("netwrite")  # send the result back
        self.state = UCState.IDLE
        self.completed_invocations += 1
        return result

    # -- anticipatory optimization hooks -----------------------------------
    def warm_network(self) -> WriteResult:
        """Network AO pass: send an HTTP request through the stack
        before snapshotting."""
        state = self.state
        if state is not UCState.BOOTED and state is not UCState.LISTENING:
            self._require(UCState.BOOTED, UCState.LISTENING)
        self.hypercall("netread")
        self.hypercall("netwrite")
        return self._ensure_first_use(regions.AO_NETWORK)

    def warm_interpreter(self) -> WriteResult:
        """Interpreter AO pass: run a dummy script before snapshotting.

        Warms the interpreter first-use extent and writes the dummy
        script's own state, which bloats the base snapshot by ~2.1 MB
        while removing ~0.9 MB from every descendant (§7).
        """
        state = self.state
        if state is not UCState.BOOTED and state is not UCState.LISTENING:
            self._require(UCState.BOOTED, UCState.LISTENING)
        warm = self._ensure_first_use(regions.AO_INTERPRETER)
        return _merge(warm, self._write_region(regions.AO_DUMMY))

    # -- snapshotting -------------------------------------------------------
    def capture_snapshot(
        self,
        name: str,
        trigger_label: str = "",
        flatten: bool = False,
        content_namespace: Optional[str] = None,
    ) -> Snapshot:
        """Capture the dirty pages; execution continues transparently.

        ``flatten=True`` produces a self-contained snapshot (no parent
        lineage) — the snapshot-stack ablation and the wire format for
        cross-node snapshot migration.  ``content_namespace`` stamps the
        capture's duplicate-content region for the node's dedup domain
        (ignored when the UC has none).
        """
        if self.state is UCState.DESTROYED:
            raise SnapshotError(f"{self.name}: destroyed")
        # A digest, not ``hash``: str hashes are salted per process, and
        # the checksum covers the instruction pointer.
        cpu = CpuState(
            instruction_pointer=zlib.crc32(f"{name}\0{trigger_label}".encode()),
            trigger_label=trigger_label or name,
        )
        return self.space.capture_snapshot(
            name, cpu, flatten=flatten, content_namespace=content_namespace
        )

    # -- teardown -----------------------------------------------------------
    def destroy(self) -> int:
        """Tear down the UC and close its channel; returns pages reclaimed."""
        if self.state is UCState.DESTROYED:
            return 0
        freed = self.space.destroy()
        self.state = UCState.DESTROYED
        channel = self.channel
        if channel is not None:
            channel.proxy.close_channel(channel)
        return freed

    def __repr__(self) -> str:
        return (
            f"UnikernelContext({self.name!r}, {self.runtime.name}, "
            f"state={self.state.value}, fn={self.bound_function!r})"
        )


#: What a warm first-use probe writes.
_NOTHING = WriteResult(0, 0, 0)


def _merge(a: WriteResult, b: WriteResult) -> WriteResult:
    if a is _NOTHING:
        # The first-use probe wrote nothing (a warm extent): ``b`` is
        # the sum, and it is frozen, so it can be returned as is.
        return b
    return WriteResult(
        pages_written=a.pages_written + b.pages_written,
        pages_copied=a.pages_copied + b.pages_copied,
        extents_copied=a.extents_copied + b.extents_copied,
    )
