"""What a client result retains, and that its breakdown reads as before.

A client keeps every :class:`InvocationResult` of a trial, so a result
is slotted, shares its function's key string, shares one stage-name
tuple with every result of the same stage sequence, and keeps its stage
times in a tuple.  ``result.breakdown`` must still read exactly as the
node's dict did: the same keys, order and values.  No test here pins a
byte count: object sizes differ between interpreter versions.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
from collections import Counter

import pytest

from repro.distributed.transfer import TransferStrategy
from repro.experiments.extensions import replicated_cluster
from repro.faas import records
from repro.faas.cluster import FaasCluster
from repro.faas.controller import Controller
from repro.faas.records import FunctionSpec, InvocationPath, InvocationResult
from repro.linuxnode.config import LinuxNodeConfig
from repro.seuss.config import SeussConfig
from repro.sim import Environment
from repro.workload.functions import (
    cpu_bound_function,
    io_bound_function,
    nop_function,
    unique_nop_set,
)
from repro.workload.generator import run_trial
from tests.census import tracked_census
from tests.conftest import oom_trial

CONSTRUCTORS = {
    "seuss": FaasCluster.with_seuss_node,
    "linux": FaasCluster.with_linux_node,
}


def _hot_pair(node_type: str):
    cluster = CONSTRUCTORS[node_type](Environment())
    fn = nop_function(owner=f"hot-{node_type}")
    cluster.invoke_sync(fn)
    first, second = cluster.invoke_sync(fn), cluster.invoke_sync(fn)
    assert first.path is second.path is InvocationPath.HOT
    return cluster, fn, first, second


class TestFunctionKey:
    def test_key_is_built_once_at_first_use(self):
        fn = FunctionSpec(name="f", owner="o")
        assert "key" not in vars(fn)  # a sweep's uninvoked specs stay small
        assert fn.key is fn.key == "o/f"

    def test_replace_builds_the_new_spec_its_own_key(self):
        fn = FunctionSpec(name="f", owner="o")
        assert fn.key == "o/f"
        moved = dataclasses.replace(fn, owner="p")
        assert moved.key is moved.key == "p/f"
        assert fn.key == "o/f"

    def test_a_read_key_leaves_equality_hash_repr_and_pickling(self):
        fn = FunctionSpec(name="f", owner="o")
        twin = FunctionSpec(name="f", owner="o")
        assert fn.key is fn.key  # read on ``fn`` only
        assert fn == twin
        assert hash(fn) == hash(twin)
        assert repr(fn) == repr(twin)
        for spec in (fn, twin):
            copy = pickle.loads(pickle.dumps(spec))
            assert copy == spec and hash(copy) == hash(spec)
            assert copy.key is copy.key == "o/f"


class TestRetention:
    #: A hot invocation's stages and the cost-model floats they keep.
    HOT_STAGES = {
        "seuss": lambda costs, fn: {
            "arg_import": costs.seuss.arg_import_ms,
            "execute": fn.exec_ms,
            "result_return": costs.seuss.result_return_ms,
        },
        "linux": lambda costs, fn: {
            "container_hot": costs.linux.container_hot_ms,
            "execute": fn.exec_ms,
        },
    }

    @pytest.mark.parametrize("node_type", sorted(CONSTRUCTORS))
    def test_a_hot_result_keeps_no_dict_and_shares_key_and_floats(
        self, node_type
    ):
        cluster, fn, result, _ = _hot_pair(node_type)
        assert not hasattr(result, "__dict__")
        assert result.function_key is fn.key
        expected = self.HOT_STAGES[node_type](cluster.costs, fn)
        breakdown = result.breakdown
        assert list(breakdown) == list(expected)
        for stage, own in expected.items():
            assert breakdown[stage] is own, stage
        gc.collect()
        assert tracked_census(result) == Counter(InvocationResult=1)

    def test_constructor_equality_and_repr_read_as_before(self):
        kwargs = dict(
            request_id=7,
            function_key="o/f",
            path=InvocationPath.WARM,
            success=True,
            sent_at_ms=1.0,
            finished_at_ms=4.5,
            node_latency_ms=3.0,
            breakdown={"a": 1.0, "b": 2.0},
            attempts=2,
        )
        result = InvocationResult(**kwargs)
        assert result.retried and result.latency_ms == 3.5
        # Equal breakdowns compare equal in any stage order, as dicts do.
        reordered = {**kwargs, "breakdown": {"b": 2.0, "a": 1.0}}
        assert result == InvocationResult(**reordered)
        assert result != InvocationResult(**{**kwargs, "attempts": 1})
        assert repr(result) == (
            "InvocationResult(request_id=7, function_key='o/f', "
            "path=<InvocationPath.WARM: 'warm'>, success=True, sent_at_ms=1.0, "
            "finished_at_ms=4.5, node_latency_ms=3.0, "
            "breakdown={'a': 1.0, 'b': 2.0}, error=None, pages_copied=0, "
            "attempts=2, transferred_mb=0.0)"
        )
        with pytest.raises(TypeError):
            hash(result)
        with pytest.raises(AttributeError):
            result.breakdown = {}
        with pytest.raises(AttributeError):
            result.note = "no instance dict"

    @pytest.mark.parametrize("node_type", sorted(CONSTRUCTORS))
    def test_one_stage_sequence_shares_one_untracked_name_tuple(self, node_type):
        _, _, first, second = _hot_pair(node_type)
        assert first._stages is second._stages
        assert records._STAGE_NAMES[first._stages] is first._stages
        assert first._stage_ms is not second._stage_ms
        gc.collect()
        for result in (first, second):
            assert not gc.is_tracked(result._stages)
            assert not gc.is_tracked(result._stage_ms)


# -- the breakdown reads as the node's dict ---------------------------------
@pytest.fixture
def answers(monkeypatch):
    """Every client result, beside the node answer it was built from
    (``None`` when no answer reached the controller)."""
    pairs = []
    respond = Controller._respond

    def recording(self, request, attempts, node_result=None, error=None):
        result = respond(self, request, attempts, node_result, error)
        pairs.append((node_result, result))
        return result

    monkeypatch.setattr(Controller, "_respond", recording)
    return pairs


def _paths(node_type: str):
    """Cold, hot and warm (SEUSS: from the cached snapshot; Linux: from
    a stem cell) NOP results, plus an I/O-bound function's."""
    cluster = CONSTRUCTORS[node_type](Environment())
    fn = nop_function(owner="paths")
    results = [cluster.invoke_sync(fn), cluster.invoke_sync(fn)]
    if node_type == "seuss":
        cluster.node.uc_cache.drop_function(fn.key)
    else:
        cluster = FaasCluster.with_linux_node(
            Environment(), config=LinuxNodeConfig(stemcell_pool_size=8)
        )
        cluster.node.start_stemcell_pool()
    results.append(cluster.invoke_sync(fn))
    io = cluster.invoke_sync(io_bound_function("io"))
    assert "io_wait" in io.breakdown
    expected = [InvocationPath.COLD, InvocationPath.HOT, InvocationPath.WARM]
    assert [result.path for result in results] == expected
    return results + [io]


def _int_charge(node_type: str):
    cluster = CONSTRUCTORS[node_type](Environment())
    result = cluster.invoke_sync(FunctionSpec(name="int", exec_ms=5))
    execute = result.breakdown["execute"]
    assert type(execute) is float and repr(execute) == "5.0"
    return [result]


def _prefetch(node_type: str):
    cluster = FaasCluster.with_seuss_node(
        Environment(), config=SeussConfig(prefetch_working_sets=True)
    )
    fn = nop_function(owner="prefetch")
    cluster.invoke_sync(fn)
    for _ in range(2):  # the first warm deploy records, the second replays
        cluster.node.uc_cache.drop_function(fn.key)
        result = cluster.invoke_sync(fn)
    assert result.path is InvocationPath.WARM
    assert "prefetch" in result.breakdown
    return [result]


def _remote_warm(node_type: str):
    cluster = replicated_cluster(TransferStrategy.COLORED, nodes=2)
    fn = nop_function(owner="remote")
    cluster.invoke_sync(fn)
    cluster.nodes[0].uc_cache.drop_function(fn.key)
    result = cluster.invoke_sync(fn)
    assert result.path is InvocationPath.WARM and result.transferred_mb > 0
    return [result]


def _errors(node_type: str):
    """SEUSS: out of memory after the core grant (the node's answer
    holds the stages it ran).  Linux: past its endpoint limit the bridge
    drops most container connections, and the client times out before
    the node answers (an empty breakdown)."""
    if node_type == "seuss":
        _, trial = oom_trial()
        failed = [result for result in trial.results if not result.success]
        assert any(result.breakdown for result in failed)
    else:
        cluster = FaasCluster.with_linux_node(
            Environment(), config=LinuxNodeConfig(seed=9)
        )
        for _ in range(cluster.node.bridge.limit):
            cluster.node.bridge.attach()
        results = [
            cluster.invoke_sync(fn) for fn in unique_nop_set(8, "bridge")
        ]
        failed = [result for result in results if not result.success]
        assert all(result.breakdown == {} for result in failed)
    assert failed
    assert all(result.path is InvocationPath.ERROR for result in failed)
    return failed


SCENARIOS = {
    ("seuss", "paths"): _paths,
    ("linux", "paths"): _paths,
    ("seuss", "int_charge"): _int_charge,
    ("linux", "int_charge"): _int_charge,
    ("seuss", "prefetch"): _prefetch,
    ("seuss", "remote_warm"): _remote_warm,
    ("seuss", "error"): _errors,
    ("linux", "error"): _errors,
}


class TestBreakdownReads:
    @pytest.mark.parametrize(
        "node_type,scenario",
        sorted(SCENARIOS),
        ids=[f"{node}-{name}" for node, name in sorted(SCENARIOS)],
    )
    def test_breakdown_reads_as_the_node_dict(self, answers, node_type, scenario):
        checked = SCENARIOS[node_type, scenario](node_type)
        answered = {id(result) for _, result in answers}
        assert all(id(result) in answered for result in checked)
        for node_result, result in answers:
            expected = node_result.breakdown if node_result is not None else {}
            read = result.breakdown
            assert list(read.items()) == list(expected.items())
            assert repr(sum(read.values())) == repr(sum(expected.values()))
            assert read.get("no_such_stage") is None
            assert read.get("no_such_stage", 0.0) == 0.0
            again = result.breakdown
            assert again == read and again is not read
            read["no_such_stage"] = 1.0
            assert "no_such_stage" not in result.breakdown

    def test_stage_name_table_holds_one_entry_per_sequence(self):
        before = len(records._STAGE_NAMES)
        results = []
        for constructor, config in (
            (FaasCluster.with_seuss_node, None),
            (FaasCluster.with_seuss_node, SeussConfig(cache_idle_ucs=False)),
            (FaasCluster.with_linux_node, None),
        ):
            cluster = constructor(Environment(), config=config)
            functions = unique_nop_set(64) + [
                io_bound_function("io"),
                cpu_bound_function("cpu"),
            ]
            trial = run_trial(
                cluster, functions, invocation_count=1500, workers=16, seed=7
            )
            results += trial.results
        sequences = {tuple(result.breakdown) for result in results}
        assert len({id(result._stages) for result in results}) == len(sequences)
        for result in results:
            assert records._STAGE_NAMES[result._stages] is result._stages
        assert len(sequences) <= 12
        assert len(records._STAGE_NAMES) - before <= len(sequences)
