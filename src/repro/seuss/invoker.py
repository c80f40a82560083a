"""The three invocation paths (§4, Figure 2).

``invoke_on_node`` is a simulation process that services one invocation
on a :class:`~repro.seuss.node.SeussNode`, choosing the **hot**, **warm**
or **cold** path by cache state and charging each stage its calibrated
cost while performing the real memory mechanics against the page
substrate.  The per-stage breakdown it returns is what the Table 1 / 2
experiments report.

It is the one place that picks where a deploy's memory comes from, in
this order: an idle UC (hot), the local function snapshot (warm), a
peer's replica shipped over the cluster interconnect (remote-warm, on a
node whose cluster replicates, §9), else the runtime snapshot (cold).
A remote-warm deploy charges the transfer as ``replica_fetch`` and the
late pages it faults across the wire as ``remote_faults``.

Every stage charge also records a child span on the invocation's root
span (:mod:`repro.trace`), so a traced run yields the §7 latency
decomposition as a machine-checkable span tree: stage spans tile the
root exactly (queue waits included), which the ``latency`` experiment
asserts.  With tracing disabled the ledger's root is ``None``, nothing
is recorded, and the invocation is byte-identical to a traced one.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.errors import OutOfMemoryError, SnapshotCorruptionError
from repro.faas.records import (
    FunctionSpec,
    InvocationLedger,
    InvocationPath,
    InvocationStage,
)
from repro.mem.workingset import WorkingSetRecorder
from repro.sim import Interrupted
from repro.trace import tracer_for
from repro.unikernel.context import UnikernelContext
from repro.units import pages_to_mb

#: Stage keys used in latency breakdowns.
STAGE_UC_CREATE = "uc_create"
STAGE_CONNECT = "connect"
STAGE_FAULTS = "cow_faults"
STAGE_PREFETCH = "prefetch"
STAGE_NETWORK_FIRST_USE = "network_first_use"
STAGE_IMPORT = "import_compile"
STAGE_INTERP_FIRST_USE = "interpreter_first_use"
STAGE_CAPTURE = "snapshot_capture"
STAGE_ARGS = "arg_import"
STAGE_EXEC = "execute"
STAGE_IO_WAIT = "io_wait"
STAGE_RESULT = "result_return"
STAGE_REPLICA_FETCH = "replica_fetch"
STAGE_REMOTE_FAULTS = "remote_faults"


def invoke_on_node(
    node,
    fn: FunctionSpec,
    deadline_ms: Optional[float] = None,
    cancel_expired: bool = False,
) -> Generator:
    """Service one invocation; yields sim events, returns NodeInvocation.

    ``node`` is a :class:`~repro.seuss.node.SeussNode` (typed loosely to
    avoid an import cycle).  The invocation's books (breakdown, stage
    spans, core time and the node's counters) are kept by an
    :class:`~repro.faas.records.InvocationLedger`.

    ``deadline_ms`` is the client's absolute deadline, propagated so the
    node can tell work somebody is waiting for from work nobody is: a
    successful completion past the deadline is accounted a *zombie*
    (its core time lands in ``node.wasted_ms``).  With ``cancel_expired``
    the invoker additionally aborts at stage boundaries once the
    deadline passes, and the whole process is cancellable at any yield
    — an :class:`~repro.sim.Interrupted` (from the controller's
    deadline watchdog or an admission-queue shed) unwinds the
    invocation, releases its core, UC pages and network mapping
    immediately, and returns a ``cancelled`` result.  Both default off,
    leaving the historical event schedule untouched.
    """
    env = node.env
    costs = node.costs.seuss
    ledger = InvocationLedger(node, fn, deadline_ms, cancel_expired)
    root = ledger.root
    # Working-set record/prefetch state (only active when the node's
    # config opts in; the hot path never touches it).
    manifest = None
    manifest_key = ""
    recorder = None
    batch = None
    connect_copied = 0
    deploy_fault_mark = 0
    #: A captured-but-not-yet-cached function snapshot (cold path); on
    #: cancellation it is orphaned so the UC teardown reaps its pages.
    captured = None
    #: The transfer that shipped a peer's replica (remote-warm only).
    shipped = None
    #: The execute/result_return boundary while one timeout ends both.
    merged_boundary = None

    try:
        # -- path selection -------------------------------------------
        injector = node.fault_injector
        uc = node.uc_cache.pop(fn.key, ledger.tracer)
        if uc is not None:
            path = InvocationPath.HOT
            fn_snapshot = None
        else:
            fn_snapshot = node.snapshot_cache.get(fn.key)
            if fn_snapshot is None and node.replicas is not None:
                fetch_started = env.now
                shipped = yield from node.replicas.fetch(node, fn)
                if node.crashed:
                    # Went down mid-transfer: answer as a dead node does.
                    return ledger.fail("node crashed")
                if shipped is not None:
                    ledger.charge_since(STAGE_REPLICA_FETCH, fetch_started)
                    ledger.transferred_mb = shipped.size_mb
                    fn_snapshot = node.snapshot_cache.get(fn.key)
            if fn_snapshot is not None:
                if injector is not None and injector.snapshot_corrupts_on_restore():
                    fn_snapshot.corrupt()
                # Integrity gate: checksums are validated before any restore.
                # A corrupted snapshot is quarantined and the invocation
                # falls through to the cold path — one cold rebuild, no
                # client-visible failure.
                try:
                    fn_snapshot.verify()
                except SnapshotCorruptionError:
                    node.snapshot_cache.quarantine(fn.key)
                    if root is not None:
                        root.event(
                            "fault.snapshot_quarantined", at=env.now, key=fn.key
                        )
                    fn_snapshot = None
            path = (
                InvocationPath.WARM
                if fn_snapshot is not None
                else InvocationPath.COLD
            )
        ledger.path = path

        try:
            core = ledger.request_core()
            if not core.processed:
                yield core
            ledger.core_granted()
            ledger.check_deadline()
            if path is not InvocationPath.HOT:
                runtime_record = node.runtime_record(fn.runtime)
                base = fn_snapshot if path is InvocationPath.WARM else runtime_record.snapshot
                try:
                    uc = UnikernelContext(
                        node.allocator,
                        runtime_record.runtime,
                        base=base,
                        dedup=node.dedup,
                    )
                except OutOfMemoryError as exc:
                    return ledger.fail(f"out of memory creating UC: {exc}")
                yield env.timeout(ledger.charge(STAGE_UC_CREATE, costs.uc_create_ms))
                ledger.reached(InvocationStage.ENVIRONMENT_CREATED)
                # Deploying from any snapshot resumes inside an initialized
                # interpreter — the whole point of the method.
                ledger.reached(InvocationStage.RUNTIME_INITIALIZED)

                if node.config.prefetch_working_sets:
                    # REAP: replay the recorded working set in one batch
                    # at deploy time; misses fall back to demand faults.
                    # The first invocation per key has no manifest and
                    # runs lazily while recording.
                    manifest_key = (
                        fn.key
                        if path is InvocationPath.WARM
                        else f"runtime:{fn.runtime}"
                    )
                    manifest = node.working_sets.get(manifest_key)
                    recorder = WorkingSetRecorder(uc.space)
                    tracer = tracer_for(env)  # for the prefetch counters
                    if manifest is not None:
                        batch = uc.space.resolve_batch(manifest.pages)
                        if batch.pages_resolved:
                            ledger.pages_prefetched = batch.pages_resolved
                            node.working_sets.note_prefetch(
                                batch.pages_resolved
                            )
                            if tracer.enabled:
                                tracer.counter(
                                    "prefetch.pages", batch.pages_resolved
                                )
                            yield env.timeout(
                                ledger.charge(
                                    STAGE_PREFETCH,
                                    costs.prefetch_ms(batch.mb_resolved),
                                )
                            )

                result = uc.start_listening()
                connect_copied = result.pages_copied
                ledger.pages_copied += result.pages_copied
                # Map the control channel on the resident core's proxy; it
                # is unmapped automatically when the UC is destroyed.
                node.network.connect_uc(uc)
                result = uc.accept_connection()
                connect_copied += result.pages_copied
                ledger.pages_copied += result.pages_copied
                yield env.timeout(ledger.charge(STAGE_CONNECT, costs.tcp_connect_ms))
                if recorder is not None:
                    recorder.mark_connected(connect_copied)

                if path is InvocationPath.COLD:
                    fault_ms = costs.cold_deploy_fault_ms
                    if manifest is not None:
                        # Measured residual: the constant covers the
                        # recorded connect-phase fault set, so scale it
                        # by the fraction the prefetch failed to absorb.
                        fault_ms *= min(
                            1.0,
                            connect_copied / max(1, manifest.connect_pages),
                        )
                    yield env.timeout(ledger.charge(STAGE_FAULTS, fault_ms))
                    if not runtime_record.ao_level.network:
                        yield env.timeout(
                            ledger.charge(
                                STAGE_NETWORK_FIRST_USE, costs.network_first_use_ms
                            )
                        )
                    result = uc.import_function(fn.key, fn.code_kb)
                    ledger.pages_copied += result.pages_copied
                    yield env.timeout(
                        ledger.charge(STAGE_IMPORT, costs.import_compile_ms(fn.code_kb))
                    )
                    if not runtime_record.ao_level.interpreter:
                        yield env.timeout(
                            ledger.charge(
                                STAGE_INTERP_FIRST_USE,
                                costs.interpreter_first_use_ms,
                            )
                        )
                    snapshot = uc.capture_snapshot(
                        f"fn:{fn.key}",
                        trigger_label="code_compiled",
                        flatten=not node.config.snapshot_stacks,
                        content_namespace=(
                            node.dedup.namespace(fn.key, fn.runtime)
                            if node.dedup is not None
                            else None
                        ),
                    )
                    captured = snapshot
                    yield env.timeout(
                        ledger.charge(
                            STAGE_CAPTURE, costs.snapshot_capture_ms(snapshot.size_mb)
                        )
                    )
                    if injector is not None and injector.snapshot_corrupts_on_capture():
                        # A bad capture: the damage surfaces at the next
                        # restore's checksum validation, not now.
                        snapshot.corrupt()
                        if root is not None:
                            root.event(
                                "fault.snapshot_corrupted_on_capture",
                                at=env.now,
                                key=fn.key,
                            )
                    if not node.snapshot_cache.put(fn.key, snapshot):
                        # Lost the insertion race to a concurrent cold start;
                        # reap this duplicate when its UC is destroyed.
                        snapshot.mark_orphan()
                    captured = None
                    ledger.reached(InvocationStage.CODE_IMPORTED)
                else:  # WARM
                    uc.restore_function(fn.key)
                    if manifest is not None:
                        # Prefetched deploy: charge the lazy per-page
                        # rate only over the faults actually taken (the
                        # prefetch stage already paid for what it
                        # absorbed, at the cheaper batched rate).
                        deploy_fault_mark = recorder.faults_taken
                        diff_mb = pages_to_mb(deploy_fault_mark)
                    else:
                        # Warm-path COW cost scales with the function
                        # *diff*; for a flattened snapshot (no lineage)
                        # the diff is its size over the shared runtime
                        # image.
                        diff_mb = fn_snapshot.size_mb
                        if fn_snapshot.parent is None:
                            diff_mb = max(
                                0.0,
                                fn_snapshot.size_mb
                                - runtime_record.snapshot.size_mb,
                            )
                    yield env.timeout(
                        ledger.charge(
                            STAGE_FAULTS,
                            costs.warm_fault_ms(
                                diff_mb,
                                runtime_record.ao_level.interpreter,
                            ),
                        )
                    )
                    # Inherited through the function snapshot.
                    ledger.reached(InvocationStage.CODE_IMPORTED)
            else:
                ledger.reached(InvocationStage.CODE_IMPORTED)  # resident in the idle UC

            # -- common tail: args, execute, result -------------------------
            ledger.check_deadline()
            result = uc.import_args()
            ledger.pages_copied += result.pages_copied
            yield env.timeout(ledger.charge(STAGE_ARGS, costs.arg_import_ms))
            ledger.reached(InvocationStage.ARGUMENTS_LOADED)

            result = uc.execute(fn.exec_write_pages)
            ledger.pages_copied += result.pages_copied
            exec_ms = fn.exec_ms
            if injector is not None and injector.core_runs_slow():
                # Degraded-core fault: the body runs, just slower.
                exec_ms *= injector.plan.slow_core_factor
                if root is not None:
                    root.event(
                        "fault.slow_core",
                        at=env.now,
                        factor=injector.plan.slow_core_factor,
                    )
            boundary = env.now + ledger.charge(STAGE_EXEC, exec_ms)
            tail_faults = 0
            if manifest is not None and path is InvocationPath.WARM:
                # Faults taken after the deploy charge (args/exec pages
                # the manifest missed) fall back to the lazy per-MB
                # rate, so imperfect recordings cannot under-bill.
                tail_faults = recorder.faults_taken - deploy_fault_mark
            if (
                tail_faults
                or fn.io_wait_ms > 0
                or (ledger.cancel_expired and ledger.deadline_due(boundary))
            ):
                yield env.timeout(exec_ms)
                if tail_faults:
                    per_mb = (
                        costs.warm_fault_per_mb_warmed_ms
                        if runtime_record.ao_level.interpreter
                        else costs.warm_fault_per_mb_ms
                    )
                    yield env.timeout(
                        ledger.charge(STAGE_FAULTS, per_mb * pages_to_mb(tail_faults))
                    )
                if fn.io_wait_ms > 0:
                    # Blocked on external I/O: the poll-based UC releases
                    # its core while waiting.
                    ledger.release_core()
                    yield env.timeout(ledger.charge(STAGE_IO_WAIT, fn.io_wait_ms))
                    core = ledger.request_core()
                    if not core.processed:
                        yield core
                    ledger.core_granted()
                ledger.check_deadline()
                ledger.reached(InvocationStage.EXECUTED)
                yield env.timeout(ledger.charge(STAGE_RESULT, costs.result_return_ms))
            else:
                # Nothing another process can see happens at the
                # boundary, so one timeout ends both stages, at the
                # instant two would reach; an interrupt in between
                # settles the pending stage below.
                merged_boundary = boundary
                yield env.timeout_at(boundary + costs.result_return_ms)
                merged_boundary = None
                ledger.reached(InvocationStage.EXECUTED, at=boundary)
                ledger.charge_at(STAGE_RESULT, boundary, costs.result_return_ms)
            ledger.reached(InvocationStage.RESULT_RETURNED)
        except OutOfMemoryError as exc:
            if uc is not None:
                uc.destroy()
            return ledger.fail(f"out of memory during {path.value} path: {exc}")
        finally:
            ledger.release_core()

        # -- working-set bookkeeping ---------------------------------------
        if recorder is not None:
            if manifest is None:
                # First invocation for this key: its write set becomes
                # the manifest later deploys prefetch.
                node.working_sets.adopt(recorder, manifest_key)
            else:
                misses = recorder.faults_taken
                replay = recorder.finish(manifest_key)
                hits = (
                    batch.resolved.intersection(replay.pages).page_count
                    if batch is not None
                    else 0
                )
                manifest.observe_replay(hits, misses)
                if tracer.enabled:
                    tracer.counter("prefetch.hits", hits)
                    tracer.counter("prefetch.misses", misses)
                    tracer.gauge("prefetch.coverage", manifest.coverage)

        # -- cache the idle UC for hot reuse --------------------------------
        cached = node.config.cache_idle_ucs and node.uc_cache.put(
            fn.key, uc, ledger.tracer
        )
        if cached:
            # Idle UCs of one shape share one copy of each page set.
            uc.space.intern_page_sets()
        else:
            uc.destroy()
        uc = None  # parked or gone: a cancel from here on must not destroy it
        if shipped is not None and shipped.residual_penalty_ms:
            # Late pages of the replica fault across the wire.
            yield env.timeout(
                ledger.charge(STAGE_REMOTE_FAULTS, shipped.residual_penalty_ms)
            )
        return ledger.finish()
    except Interrupted as exc:
        # Cancelled mid-flight (controller deadline watchdog, a shed
        # policy's eviction, or the stage-boundary gate): the core went
        # back in the ``finally`` above; release the rest now and report
        # the core time burned as wasted work.
        if merged_boundary is not None and env.now > merged_boundary:
            # Cut short inside result_return: the books two timeouts
            # would keep.  At the boundary instant itself the interrupt
            # wins, as an URGENT interrupt beats a NORMAL timeout due
            # then, and only execute is billed.
            ledger.reached(InvocationStage.EXECUTED, at=merged_boundary)
            ledger.charge_at(STAGE_RESULT, merged_boundary, costs.result_return_ms)
        if captured is not None:
            captured.mark_orphan()  # reaped by the UC teardown below
        if uc is not None:
            uc.destroy()
        return ledger.cancel(exc)
