"""The overload control plane: units, integration and acceptance.

Unit tests cover the knobs in isolation (config validation, retry
budget arithmetic, admission-queue shed policies).  Integration tests
drive real clusters: fail-fast on pre-expired deadlines (the node must
never be touched), mid-execution cancellation with bounded wasted
work, naive-mode zombie accounting, and the resilience report rows.
The ``overload``-marked acceptance class locks the headline claim: at
2x offered load the controlled arm delivers strictly more goodput and
strictly less wasted work than the naive arm — with and without the
chaos fault plan layered on top.
"""

from __future__ import annotations

import pytest

from repro import trace
from repro.errors import ConfigError, DeadlineExceededError
from repro.experiments.overload import (
    DEADLINE_MS,
    cluster_capacity_rps,
    run_overload,
    run_overload_trial,
)
from repro.faas.cluster import FaasCluster
from repro.faas.overload import (
    OVERLOAD_DISABLED,
    AdmissionQueue,
    OverloadConfig,
    OverloadControl,
    OverloadStats,
    RetryBudget,
    ShedPolicy,
)
from repro.faas.records import InvocationPath, InvocationRequest, InvocationStage
from repro.linuxnode.config import LinuxNodeConfig
from repro.linuxnode.node import LinuxNode
from repro.metrics.resilience import ResilienceReport, goodput_per_sec
from repro.seuss.node import SeussNode
from repro.sim import Environment
from repro.trace import Tracer
from repro.workload.functions import (
    cpu_bound_function,
    io_bound_function,
    nop_function,
    unique_nop_set,
)
from repro.workload.generator import run_trial
from tests.conftest import oom_trial


# -- config ---------------------------------------------------------------


class TestOverloadConfig:
    def test_default_is_disabled(self):
        assert not OVERLOAD_DISABLED.enabled
        assert not OverloadConfig().enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_ms": 100.0},
            {"queue_depth": 2},
            {"retry_budget_fraction": 0.1},
        ],
    )
    def test_any_knob_enables(self, kwargs):
        assert OverloadConfig(**kwargs).enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_ms": 0.0},
            {"deadline_ms": -5.0},
            {"queue_depth": -1},
            {"retry_budget_fraction": 1.5},
            {"retry_budget_fraction": -0.1},
            {"retry_budget_fraction": 0.1, "retry_budget_burst": -1.0},
            {"cancel_expired": True},  # requires deadline_ms
        ],
    )
    def test_invalid_configs_raise(self, kwargs):
        with pytest.raises(ConfigError):
            OverloadConfig(**kwargs)

    def test_disabled_config_wires_nothing_into_cluster(self):
        env = Environment()
        cluster = FaasCluster.with_seuss_node(env, overload=OVERLOAD_DISABLED)
        assert cluster.controller.overload is None


# -- retry budget ---------------------------------------------------------


class TestRetryBudget:
    def test_burst_then_starvation(self):
        budget = RetryBudget(fraction=0.5, burst=2.0)
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()  # bucket empty
        assert budget.denied == 1

    def test_admissions_earn_tokens(self):
        budget = RetryBudget(fraction=0.5, burst=2.0)
        budget.try_spend(), budget.try_spend()
        budget.note_admitted()
        budget.note_admitted()  # 2 admissions x 0.5 = 1 token
        assert budget.try_spend()
        assert not budget.try_spend()

    def test_tokens_cap_at_burst(self):
        budget = RetryBudget(fraction=1.0, burst=3.0)
        for _ in range(10):
            budget.note_admitted()
        assert budget.tokens == 3.0

    def test_control_counts_denials(self):
        env = Environment()
        control = OverloadControl(
            env,
            OverloadConfig(retry_budget_fraction=0.1, retry_budget_burst=1.0),
        )
        assert control.allow_retry()
        assert not control.allow_retry()
        assert control.stats.retry_budget_denied == 1

    def test_no_budget_always_allows(self):
        env = Environment()
        control = OverloadControl(env, OverloadConfig(deadline_ms=100.0))
        assert all(control.allow_retry() for _ in range(100))


# -- admission queue ------------------------------------------------------


class _FakeCores:
    def __init__(self, capacity):
        self.capacity = capacity


class _FakeNode:
    def __init__(self, capacity=1):
        self.cores = _FakeCores(capacity)


class _FakeProcess:
    def __init__(self):
        self.cancelled_with = None
        self.callbacks = []

    def cancel(self, cause):
        self.cancelled_with = cause
        return True


def _request(request_id, now=0.0, deadline_ms=None):
    return InvocationRequest(
        request_id=request_id,
        function=nop_function(),
        sent_at_ms=now,
        deadline_ms=deadline_ms,
    )


def _queue(policy, cores=1, depth=1):
    return AdmissionQueue(
        _FakeNode(cores), depth, policy, OverloadStats()
    )


class TestAdmissionQueue:
    def test_admits_up_to_cores_plus_depth(self):
        queue = _queue(ShedPolicy.REJECT_NEWEST, cores=1, depth=1)
        assert queue.try_admit(_request(1), 0.0)
        assert queue.try_admit(_request(2), 0.0)
        assert not queue.try_admit(_request(3), 0.0)
        assert queue.stats.shed_newest == 1
        assert queue.depth == 2

    def test_reject_oldest_cancels_queued_victim(self):
        queue = _queue(ShedPolicy.REJECT_OLDEST, cores=1, depth=1)
        running, queued = _FakeProcess(), _FakeProcess()
        assert queue.try_admit(_request(1), 0.0)
        queue.attach(_request(1), running)
        assert queue.try_admit(_request(2), 0.0)
        queue.attach(_request(2), queued)
        # Full: the *queued* entry (2) is sacrificed, never the running
        # one, and the newcomer takes its slot.
        assert queue.try_admit(_request(3), 1.0)
        assert queued.cancelled_with is not None
        assert running.cancelled_with is None
        assert queue.stats.shed_oldest == 1

    def test_drop_expired_prefers_dead_queued_work(self):
        queue = _queue(ShedPolicy.DROP_EXPIRED, cores=1, depth=1)
        expired = _FakeProcess()
        assert queue.try_admit(_request(1, deadline_ms=1000.0), 0.0)
        assert queue.try_admit(_request(2, deadline_ms=5.0), 0.0)
        queue.attach(_request(2), expired)
        # now=10 > request 2's deadline: it is evicted, newcomer admitted.
        assert queue.try_admit(_request(3, deadline_ms=1000.0), 10.0)
        assert expired.cancelled_with is not None
        assert queue.stats.shed_expired == 1

    def test_drop_expired_falls_back_to_tail_drop(self):
        queue = _queue(ShedPolicy.DROP_EXPIRED, cores=1, depth=1)
        assert queue.try_admit(_request(1, deadline_ms=1000.0), 0.0)
        assert queue.try_admit(_request(2, deadline_ms=1000.0), 0.0)
        # Nothing queued is expired: the newcomer is rejected instead.
        assert not queue.try_admit(_request(3, deadline_ms=1000.0), 10.0)
        assert queue.stats.shed_newest == 1

    def test_completion_frees_the_slot(self):
        queue = _queue(ShedPolicy.REJECT_NEWEST, cores=1, depth=0)
        process = _FakeProcess()
        assert queue.try_admit(_request(1), 0.0)
        queue.attach(_request(1), process)
        assert not queue.try_admit(_request(2), 0.0)
        process.callbacks[0](None)  # the node process completed
        assert queue.depth == 0
        assert queue.try_admit(_request(3), 0.0)


# -- integration: fail-fast, cancellation, zombies ------------------------


def _overloaded_cluster(env, overload, exec_ms=50.0):
    cluster = FaasCluster.with_seuss_node(env, overload=overload)
    fn = cpu_bound_function("victim", owner="t", exec_ms=exec_ms)
    return cluster, fn


class TestDeadlineFailFast:
    """Satellite regression: a request already past its deadline must
    fail at the controller without ever reaching a node (the historical
    code clamped the remaining time to 0.1 ms and dispatched anyway)."""

    def test_expired_request_never_touches_the_node(self):
        env = Environment()
        # Deadline far below the pre-node control-plane latency
        # (~143 ms): expired before any node dispatch could happen.
        cluster, fn = _overloaded_cluster(
            env, OverloadConfig(deadline_ms=5.0)
        )
        result = cluster.invoke_sync(fn)
        assert not result.success
        assert "deadline" in result.error
        assert cluster.node.stats.total == 0  # node untouched
        assert cluster.controller.stats.deadline_rejected == 1
        assert cluster.controller.stats.timed_out == 0
        assert cluster.controller.overload.stats.deadline_rejected == 1

    def test_report_surfaces_the_rejection(self):
        env = Environment()
        cluster, fn = _overloaded_cluster(env, OverloadConfig(deadline_ms=5.0))
        cluster.invoke_sync(fn)
        report = ResilienceReport.from_cluster(cluster)
        assert report.deadline_rejected == 1
        assert any("rejected at deadline" in line for line in report.lines())


class TestCancellation:
    def test_expired_work_is_cancelled_and_waste_bounded(self):
        env = Environment()
        # Deadline passes while the 200 ms body is executing: the
        # controller cancels the node process mid-run.
        cluster, fn = _overloaded_cluster(
            env,
            OverloadConfig(
                deadline_ms=250.0, cancel_expired=True, queue_depth=4
            ),
            exec_ms=200.0,
        )
        result = cluster.invoke_sync(fn)
        node = cluster.node
        assert not result.success
        assert node.cancelled_count == 1
        assert node.zombie_count == 0
        # Waste is the partial execution, strictly less than a full body.
        assert 0.0 < node.wasted_ms < 200.0
        assert cluster.controller.overload.stats.cancelled == 1

    def test_cancelled_core_is_reusable(self):
        env = Environment()
        cluster, fn = _overloaded_cluster(
            env,
            OverloadConfig(
                deadline_ms=250.0, cancel_expired=True, queue_depth=4
            ),
            exec_ms=200.0,
        )
        assert not cluster.invoke_sync(fn).success
        quick = cpu_bound_function("quick", owner="t", exec_ms=10.0)
        assert cluster.invoke_sync(quick).success  # core was released

    def test_naive_mode_completes_as_zombie(self):
        env = Environment()
        cluster, fn = _overloaded_cluster(
            env, OverloadConfig(deadline_ms=250.0), exec_ms=200.0
        )
        result = cluster.invoke_sync(fn)
        env.run()  # let the abandoned node work run to completion
        node = cluster.node
        assert not result.success  # the client gave up at the deadline
        assert node.zombie_count == 1
        assert node.cancelled_count == 0
        # The full body was burned for nobody.
        assert node.wasted_ms >= 200.0


class TestLinuxEndings:
    """The Linux node's cancel and zombie endings, driven on the node
    the way the controller drives them (a deadline, then a cancel)."""

    BODY_MS = 200.0

    @pytest.fixture
    def warmed(self):
        """A Linux node holding one idle container of the victim."""
        node = LinuxNode(Environment())
        fn = cpu_bound_function("victim", owner="t", exec_ms=self.BODY_MS)
        node.env.run(until=node.invoke(fn))
        return node, fn

    def test_cancel_mid_execute_wastes_the_partial_body(self, warmed):
        node, fn = warmed
        env = node.env
        start = env.now
        process = node.invoke(fn, deadline_ms=start + 100.0, cancel_expired=True)
        env.run(until=start + 100.0)
        assert process.cancel(DeadlineExceededError("client deadline expired"))
        result = env.run(until=process)
        assert result.cancelled and not result.success
        # The hot start holds no core; execution did, until the cancel.
        hot_ms = node.costs.linux.container_hot_ms
        assert result.wasted_ms == pytest.approx(100.0 - hot_ms)
        assert node.wasted_ms == result.wasted_ms
        assert node.cancelled_count == 1
        assert node.useful_ms == pytest.approx(self.BODY_MS)  # the warm-up
        # The container was destroyed and the core handed back.
        assert node.total_containers == 0
        assert node.allocator.category_pages("container") == 0
        assert node.bridge.endpoints == 0
        assert node.cores.count == 0
        quick = cpu_bound_function("quick", owner="t", exec_ms=10.0)
        assert env.run(until=node.invoke(quick)).success

    def test_cancel_while_parked_on_capacity_wastes_nothing(self):
        env = Environment()
        node = LinuxNode(env, config=LinuxNodeConfig(container_cache_limit=1))
        blocker = node.invoke(io_bound_function("blocker"))
        parked = node.invoke(
            nop_function(owner="waiter"),
            deadline_ms=env.now + 50.0,
            cancel_expired=True,
        )
        env.run(until=env.now + 50.0)
        assert len(node._capacity_waiters) == 1
        assert parked.cancel(DeadlineExceededError("client deadline expired"))
        result = env.run(until=parked)
        assert result.cancelled and result.path is InvocationPath.COLD
        assert result.wasted_ms == 0.0
        assert node.wasted_ms == 0.0 and node.cancelled_count == 1
        assert not node._capacity_waiters
        assert env.run(until=blocker).success
        assert node.total_containers == 1

    def test_zombie_wastes_the_full_body(self, warmed):
        node, fn = warmed
        env = node.env
        before = node.wasted_ms
        result = env.run(until=node.invoke(fn, deadline_ms=env.now + 100.0))
        assert result.success and not result.cancelled
        assert node.zombie_count == 1
        assert result.wasted_ms == pytest.approx(self.BODY_MS)
        assert node.wasted_ms == before + result.wasted_ms
        assert node.useful_ms == pytest.approx(self.BODY_MS)  # the warm-up


class TestSeussEndings:
    """Cancelling a SEUSS invocation around its last two stages.

    With nothing another process can see between them, ``execute`` and
    ``result_return`` end with one timeout at the boundary plus the
    result's cost.  A cancellation (a shed, here: no deadline is set)
    settles the books two timeouts would keep: before the boundary only
    ``execute`` is billed, after it ``EXECUTED`` is stamped at the
    boundary and ``result_return`` billed too.  At the boundary instant
    itself the interrupt wins, as an URGENT interrupt beats a NORMAL
    timeout due at the same instant."""

    BODY_MS = 200.0

    @pytest.fixture
    def warmed(self):
        """A SEUSS node holding one idle UC of the victim."""
        node = SeussNode(Environment())
        node.initialize_sync()
        fn = cpu_bound_function("victim", owner="t", exec_ms=self.BODY_MS)
        node.env.run(until=node.invoke(fn))
        return node, fn

    def _cancel(self, node, fn, offset_ms):
        """Run a hot invocation, cancel it ``offset_ms`` after its
        execute/result_return boundary, and return the result, its
        start and the boundary."""
        env = node.env
        start = env.now
        boundary = (start + node.costs.seuss.arg_import_ms) + fn.exec_ms
        before = node.wasted_ms
        process = node.invoke(fn, cancel_expired=True)
        env.run(until=boundary + offset_ms)
        assert process.cancel(DeadlineExceededError("shed"))
        result = env.run(until=process)
        assert result.path is InvocationPath.HOT
        assert result.cancelled and not result.success
        assert result.wasted_ms == env.now - start  # the core, all along
        assert node.wasted_ms == before + result.wasted_ms
        assert node.cancelled_count == 1 and node.useful_ms > 0.0
        # The core, the UC's frames and its channel went back.
        assert node.cores.count == 0
        assert node.allocator.category_pages("uc_private") == 0
        assert node.allocator.category_pages("uc_page_table") == 0
        assert node.network.active_channels == 0
        assert len(node.uc_cache) == 0
        return result, start, boundary

    @staticmethod
    def _stages(node, fn, returned=False):
        """The breakdown billed so far: through ``execute``, and
        ``result_return`` too when ``returned``."""
        costs = node.costs.seuss
        stages = {"arg_import": costs.arg_import_ms, "execute": fn.exec_ms}
        if returned:
            stages["result_return"] = costs.result_return_ms
        return stages

    def test_cancel_inside_execute_bills_only_execute(self, warmed):
        node, fn = warmed
        result, start, boundary = self._cancel(node, fn, -self.BODY_MS / 2)
        assert result.breakdown == self._stages(node, fn)
        assert InvocationStage.EXECUTED not in result.stage_times
        assert result.stage_times[InvocationStage.ARGUMENTS_LOADED] == (
            start + node.costs.seuss.arg_import_ms
        )
        assert result.wasted_ms == pytest.approx(boundary - self.BODY_MS / 2 - start)

    def test_cancel_inside_result_return_settles_both_stages(self, warmed):
        node, fn = warmed
        half = node.costs.seuss.result_return_ms / 2
        result, start, boundary = self._cancel(node, fn, half)
        assert result.breakdown == self._stages(node, fn, returned=True)
        assert result.stage_times[InvocationStage.EXECUTED] == boundary
        assert InvocationStage.RESULT_RETURNED not in result.stage_times
        assert result.wasted_ms == pytest.approx(boundary + half - start)

    def test_cancel_at_the_boundary_bills_only_execute(self, warmed):
        node, fn = warmed
        result, start, boundary = self._cancel(node, fn, 0.0)
        assert result.breakdown == self._stages(node, fn)
        assert InvocationStage.EXECUTED not in result.stage_times
        assert result.wasted_ms == boundary - start

    def test_traced_cancellation_tiles_the_settled_stages(self, warmed):
        """The settled ``result_return`` span runs from the boundary
        for the stage's full cost, as a second timeout would record it;
        the root ends at the cancellation."""
        node, fn = warmed
        tracer = trace.enable(Tracer())
        try:
            half = node.costs.seuss.result_return_ms / 2
            _, _, boundary = self._cancel(node, fn, half)
        finally:
            trace.disable()
        (root,) = [
            span
            for span in tracer.roots("invocation")
            if span.attrs.get("cancelled")
        ]
        stages = {child.name: child for child in tracer.children(root)}
        assert stages["execute"].end_ms == boundary
        assert stages["result_return"].start_ms == boundary
        assert (
            stages["result_return"].end_ms
            == boundary + node.costs.seuss.result_return_ms
        )
        assert root.end_ms == boundary + half


class TestCancelAtTheClaim:
    """A cancel delivered at the instant a SEUSS invocation claims a free
    core.  The claim holds the core at once, with no grant event to
    wait on, so the invocation has already entered its first stage when
    the interrupt lands: that stage is billed (a stage is billed when
    its timeout is yielded), no core time has passed, so nothing is
    wasted, and the core, the UC's frames and its channel go back."""

    @pytest.mark.parametrize(
        "path, first_stage", [("hot", "arg_import"), ("cold", "uc_create")]
    )
    def test_the_cancel_meets_the_first_stage(self, path, first_stage):
        node = SeussNode(Environment())
        node.initialize_sync()
        fn = cpu_bound_function("victim", owner="t", exec_ms=200.0)
        if path == "hot":
            node.env.run(until=node.invoke(fn))
        env = node.env
        start = env.now
        process = node.invoke(fn, cancel_expired=True)
        assert node.cores.count == 1  # claimed in the process's first step
        assert process.cancel(DeadlineExceededError("shed"))
        result = env.run(until=process)
        assert result.path.value == path
        assert result.cancelled and not result.success
        assert env.now == start
        costs = node.costs.seuss
        assert result.breakdown == {first_stage: getattr(costs, f"{first_stage}_ms")}
        assert InvocationStage.ARGUMENTS_LOADED not in result.stage_times
        assert result.wasted_ms == 0.0 and node.wasted_ms == 0.0
        assert result.pages_copied == 0
        assert node.cancelled_count == 1
        # The core, the UC's frames and its channel went back.
        assert node.cores.count == 0 and not node.cores.queue
        assert node.allocator.category_pages("uc_private") == 0
        assert node.allocator.category_pages("uc_page_table") == 0
        assert node.network.active_channels == 0
        assert len(node.uc_cache) == 0


class TestCoreTimeLaw:
    """``useful_ms`` is the core time completed invocations held, on
    both node types: the stages billed while holding a core."""

    #: Breakdown stages billed while holding a core, per node type.
    HOLDING = {
        "seuss": lambda breakdown: sum(breakdown.values())
        - breakdown.get("io_wait", 0.0),
        "linux": lambda breakdown: breakdown.get("execute", 0.0),
    }

    @pytest.mark.parametrize("node_type", sorted(HOLDING))
    def test_useful_time_is_the_core_holding_stages(self, node_type):
        constructor = {
            "seuss": FaasCluster.with_seuss_node,
            "linux": FaasCluster.with_linux_node,
        }[node_type]
        cluster = constructor(Environment())
        functions = unique_nop_set(16) + [io_bound_function("io")]
        trial = run_trial(
            cluster, functions, invocation_count=200, workers=8, seed=0x0FF
        )
        assert all(result.success for result in trial.results)
        assert any("io_wait" in result.breakdown for result in trial.results)
        holding = self.HOLDING[node_type]
        node = cluster.node
        assert node.useful_ms == pytest.approx(
            sum(holding(result.breakdown) for result in trial.results)
        )
        assert node.wasted_ms == 0.0

    def test_failed_invocations_bank_their_core_time_as_waste(self):
        """Out of memory after the core grant: the core time an error
        held is waste, so useful plus wasted time covers every result."""
        cluster, trial = oom_trial()
        holding = self.HOLDING["seuss"]
        failed = [result for result in trial.results if not result.success]
        assert sum(holding(result.breakdown) for result in failed) > 0.0
        node = cluster.node
        assert node.wasted_ms == pytest.approx(
            sum(holding(result.breakdown) for result in failed)
        )
        assert node.useful_ms + node.wasted_ms == pytest.approx(
            sum(holding(result.breakdown) for result in trial.results)
        )

    @pytest.mark.parametrize("node_type", sorted(HOLDING))
    def test_each_ending_adds_its_own_waste(self, node_type):
        if node_type == "seuss":
            node = SeussNode(Environment())
            node.initialize_sync()
        else:
            node = LinuxNode(Environment())
        env = node.env
        fn = cpu_bound_function("victim", owner="t", exec_ms=200.0)
        env.run(until=node.invoke(fn))
        for cancel in (False, True):  # a zombie, then a cancellation
            before = node.wasted_ms
            process = node.invoke(
                fn, deadline_ms=env.now + 100.0, cancel_expired=cancel
            )
            if cancel:
                env.run(until=env.now + 100.0)
                process.cancel(DeadlineExceededError("client deadline expired"))
            result = env.run(until=process)
            assert result.cancelled is cancel
            assert result.wasted_ms > 0.0
            assert node.wasted_ms == before + result.wasted_ms
        assert node.zombie_count == node.cancelled_count == 1


# -- observability: quota + overload counters surface ---------------------


class TestCountersSurface:
    def test_quota_rejections_emit_tracer_counters(self):
        from repro import trace
        from repro.costs import DEFAULT_COSTS
        from repro.faas.controller import Controller
        from repro.faas.quotas import QuotaConfig
        from repro.seuss.node import SeussNode
        from repro.trace import Tracer

        env = Environment()
        node = SeussNode(env)
        node.initialize_sync()
        controller = Controller(
            env,
            node,
            DEFAULT_COSTS.platform,
            quotas=QuotaConfig(invocations_per_minute=1),
        )
        fn = nop_function()
        tracer = trace.enable(Tracer())
        try:
            env.run(until=env.process(controller.invoke(fn)))
            throttled = env.run(until=env.process(controller.invoke(fn)))
        finally:
            trace.disable()
        assert not throttled.success
        assert tracer.counter_total("quota.rate_rejections") == 1

    def test_overload_counters_emit_tracer_counters(self):
        from repro import trace
        from repro.trace import Tracer

        env = Environment()
        cluster, fn = _overloaded_cluster(env, OverloadConfig(deadline_ms=5.0))
        tracer = trace.enable(Tracer())
        try:
            cluster.invoke_sync(fn)
        finally:
            trace.disable()
        assert tracer.counter_total("overload.deadline_rejected") == 1

    def test_quota_row_in_report_lines(self):
        report = ResilienceReport(throttled=3, quota_rate_rejections=2)
        assert any("quotas: 3 throttled" in line for line in report.lines())

    def test_quiet_report_has_no_quota_or_overload_rows(self):
        report = ResilienceReport()
        lines = report.lines()
        assert not any("quotas:" in line for line in lines)
        assert not any("overload:" in line for line in lines)
        assert not any("node work:" in line for line in lines)


# -- goodput helper -------------------------------------------------------


class TestGoodput:
    def test_counts_successes_per_second(self):
        class R:
            def __init__(self, success):
                self.success = success

        results = [R(True), R(True), R(False)]
        assert goodput_per_sec(results, 1000.0) == 2.0
        assert goodput_per_sec(results, 0.0) == 0.0
        assert goodput_per_sec([], 500.0) == 0.0


# -- acceptance (deterministic, fixed seeds) ------------------------------


@pytest.mark.overload
class TestOverloadAcceptance:
    DURATION_MS = 1200.0

    @pytest.fixture(scope="class")
    def at_two_x(self):
        naive = run_overload_trial(
            2.0, duration_ms=self.DURATION_MS, controlled=False
        )
        controlled = run_overload_trial(
            2.0, duration_ms=self.DURATION_MS, controlled=True
        )
        return naive, controlled

    def test_controlled_goodput_strictly_higher(self, at_two_x):
        (n_rec, _, n_elapsed), (c_rec, _, c_elapsed) = at_two_x
        naive = goodput_per_sec(n_rec.results, n_elapsed)
        controlled = goodput_per_sec(c_rec.results, c_elapsed)
        assert controlled > naive

    def test_controlled_wastes_strictly_less(self, at_two_x):
        (_, n_rep, _), (_, c_rep, _) = at_two_x
        assert c_rep.wasted_work_fraction < n_rep.wasted_work_fraction

    def test_naive_burns_cores_on_zombies(self, at_two_x):
        (_, n_rep, _), (_, c_rep, _) = at_two_x
        assert n_rep.zombies > 0
        assert c_rep.zombies == 0  # expired work is cancelled, not run

    def test_controlled_sheds_instead_of_queueing(self, at_two_x):
        (_, n_rep, _), (_, c_rep, _) = at_two_x
        assert c_rep.shed > 0
        assert n_rep.shed == 0

    def test_successes_meet_the_deadline(self, at_two_x):
        for recorder, _, _ in at_two_x:
            for result in recorder.successes:
                assert result.latency_ms <= DEADLINE_MS + 1e-6

    def test_holds_under_chaos(self):
        n_rec, _, n_el = run_overload_trial(
            2.0, duration_ms=self.DURATION_MS, controlled=False, chaos=True
        )
        c_rec, _, c_el = run_overload_trial(
            2.0, duration_ms=self.DURATION_MS, controlled=True, chaos=True
        )
        assert goodput_per_sec(c_rec.results, c_el) > goodput_per_sec(
            n_rec.results, n_el
        )

    def test_experiment_smoke_profile(self):
        result = run_overload(
            multiples=(2.0,), duration_ms=400.0, chaos=False
        )
        assert result.experiment_id == "overload"
        assert len(result.rows) == 2  # naive + ctrl
        aggregates = result.raw["aggregates"]
        assert (
            aggregates["2.0x ctrl"]["goodput_per_sec"]
            > aggregates["2.0x naive"]["goodput_per_sec"]
        )

    def test_determinism(self):
        one = run_overload_trial(2.0, duration_ms=400.0, controlled=True)
        two = run_overload_trial(2.0, duration_ms=400.0, controlled=True)
        assert [r.latency_ms for r in one[0].results] == [
            r.latency_ms for r in two[0].results
        ]
        assert one[2] == two[2]

    def test_underload_arms_agree(self):
        """At 0.5x nothing sheds, cancels or zombifies — the control
        plane is pure overhead-free observation."""
        n_rec, n_rep, _ = run_overload_trial(
            0.5, duration_ms=self.DURATION_MS, controlled=False
        )
        c_rec, c_rep, _ = run_overload_trial(
            0.5, duration_ms=self.DURATION_MS, controlled=True
        )
        assert n_rep.shed == c_rep.shed == 0
        assert n_rep.cancelled == c_rep.cancelled == 0
        assert [r.latency_ms for r in n_rec.results] == [
            r.latency_ms for r in c_rec.results
        ]

    def test_capacity_matches_cost_book(self):
        assert cluster_capacity_rps() == pytest.approx(39.76, abs=0.01)
