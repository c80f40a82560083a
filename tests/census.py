"""What one retained object costs the cyclic collector, and what one
hot invocation costs the host.

:func:`tracked_census` walks ``gc.get_referents`` from one object and
counts the GC-tracked objects it reaches that are not shared with the
rest of the node; :func:`retained_bytes` measures the memory a cold
invocation leaves behind; :func:`queue_census` counts what a closed
loop keeps in the engine's queue; :func:`call_census` counts the calls
a hot invocation makes, by layer and for its most-called functions,
:func:`deploy_call_census` those of a cold and of a warm one,
:func:`event_census` the engine events of each path on each backend,
by kind, and :func:`null_tracer_census` the calls an untraced one
makes into the disabled tracer.  Plain Python only, so
it also runs on interpreters without pytest::

    PYTHONPATH=src:. python -c "from tests.census import main; main()"
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import re
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from enum import Enum
from types import ModuleType

from repro.mem.frames import FrameAllocator
from repro.mem.intervals import IntervalSet, table_sizes
from repro.mem.snapshot import Snapshot
from repro.net.proxy import NetworkProxy
from repro.seuss.node import SeussNode
from repro.trace.tracer import NullTracer, _NullSpan
from repro.unikernel.interpreters import RuntimeSpec
from repro.unikernel.layout import MemoryLayout

#: What every UC and snapshot of a node shares; the census walk stops
#: there (and at canonical page sets), so a snapshot is counted only as
#: the root, not as a parent.
SHARED = (
    Snapshot,
    FrameAllocator,
    RuntimeSpec,
    MemoryLayout,
    NetworkProxy,
    SeussNode,
    Enum,
    ModuleType,
    type,
)


def _shared(obj) -> bool:
    return isinstance(obj, SHARED) or (
        obj.__class__ is IntervalSet and obj.canonical
    )


def tracked_census(root) -> Counter:
    """GC-tracked objects reachable from ``root`` but not shared, by
    type name.  Dicts are walked through but not counted, so the result
    does not depend on how the interpreter lays out instance dicts;
    module namespaces (a function's globals) and canonical page sets
    (:meth:`IntervalSet.interned`) are shared."""
    seen = {id(root)} | {
        id(vars(module))
        for module in list(sys.modules.values())
        if isinstance(module, ModuleType)
    }
    pending = [root]
    census: Counter = Counter()
    while pending:
        obj = pending.pop()
        if gc.is_tracked(obj) and type(obj) is not dict:
            census[type(obj).__name__] += 1
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not _shared(ref):
                seen.add(id(ref))
                pending.append(ref)
    return census


def retained_bytes(invocations: int = 2_000) -> float:
    """Bytes one cold NOP invocation leaves retained on a node (its
    function snapshot, its idle UC and the node's books of both):
    the growth of :mod:`tracemalloc`'s traced memory over
    ``invocations`` cold NOPs of distinct functions, per invocation.
    The functions are built, and one is invoked, before tracing starts."""
    from repro.sim import Environment
    from repro.workload.functions import unique_nop_set

    node = SeussNode(Environment())
    node.initialize_sync()
    first, *fns = unique_nop_set(invocations + 1)
    node.invoke_sync(first)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for fn in fns:
            node.invoke_sync(fn)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return grown / invocations


def hot_loop(invocations: int, backend: str = "seuss"):
    """A closed loop of the end-to-end benchmark's ``hot_loop`` shape
    (32 clients over 64 warmed NOPs) on a fresh cluster of ``backend``
    (``"seuss"`` or ``"linux"``): returns the environment, the cluster
    and the loop's (not yet run) process."""
    from repro.faas.cluster import FaasCluster
    from repro.metrics.collector import TrialMetrics
    from repro.sim import Environment
    from repro.workload.functions import unique_nop_set
    from repro.workload.generator import LoadGenerator, TrialConfig

    env = Environment()
    cluster = getattr(FaasCluster, f"with_{backend}_node")(env)
    fns = unique_nop_set(64)
    for fn in fns:
        env.run(until=cluster.invoke(fn))
    loop = LoadGenerator(fns, TrialConfig(invocation_count=invocations, workers=32))
    return env, cluster, env.process(loop.run_process(cluster, TrialMetrics()))


def queue_census() -> dict:
    """Engine-queue entries of a :func:`hot_loop`: all pending entries,
    and the withdrawn timeouts among them still awaiting compaction.
    Read once the loop has run for more than one request-watchdog
    period, so a watchdog left queued per request would show."""
    # ~9.6k invocations fit in the window at the shim's ~128.6 req/s.
    env, cluster, _ = hot_loop(12_000)
    env.run(until=env.now + 1.25 * cluster.costs.platform.request_timeout_ms)
    return {"pending": len(env._pending), "withdrawn": env._withdrawn}


def _layer(filename: str) -> str:
    """The ``repro`` layer a profiled function lives in; ``builtins``
    for C functions, ``other`` for the standard library."""
    if filename == "~":
        return "builtins"
    parts = filename.replace(os.sep, "/").split("/")
    if "repro" not in parts[:-1]:
        return "other"
    layer = parts[parts.index("repro") + 1]
    return layer[:-3] if layer.endswith(".py") else layer


def _function(filename: str, line: int, name: str) -> str:
    """A profiled function's name: ``layer/module.py:line(name)`` inside
    ``repro``, ``module.py:line(name)`` elsewhere, and a builtin's own
    name, less any object address in it."""
    if filename == "~":
        return re.sub(r" at 0x[0-9a-fA-F]+>$", ">", name)
    parts = filename.replace(os.sep, "/").split("/")
    if "repro" in parts[:-1]:
        parts = parts[parts.index("repro") + 1 :]
    else:
        parts = parts[-1:]
    return f"{'/'.join(parts)}:{line}({name})"


#: How many of the most-called functions a call census lists.
TOP_FUNCTIONS = 15


def _calls_per_invocation(run, invocations: int) -> dict:
    """Calls :mod:`cProfile` sees while ``run()`` serves ``invocations``
    invocations (Python functions and builtins alike), per invocation:
    in total, by layer, and the :data:`TOP_FUNCTIONS` most-called
    functions (``top``, most-called first, as ``(function, calls)``)."""
    profile = cProfile.Profile()
    profile.enable()
    run()
    profile.disable()
    by_layer: Counter = Counter()
    by_function: Counter = Counter()
    for (filename, line, name), (_, calls, *_) in pstats.Stats(
        profile
    ).stats.items():
        by_layer[_layer(filename)] += calls
        by_function[_function(filename, line, name)] += calls
    return {
        "total": round(sum(by_layer.values()) / invocations, 1),
        "by_layer": {
            layer: round(calls / invocations, 1)
            for layer, calls in by_layer.most_common()
        },
        "top": [
            (function, round(calls / invocations, 1))
            for function, calls in by_function.most_common(TOP_FUNCTIONS)
        ],
    }


def call_census(invocations: int = 4_000, backend: str = "seuss") -> dict:
    """Calls per invocation of a :func:`hot_loop` of ``invocations``
    requests on ``backend``, in total, by layer and for the most-called
    functions."""
    env, _, process = hot_loop(invocations, backend)
    return _calls_per_invocation(lambda: env.run(until=process), invocations)


def deploy_call_census(invocations: int = 200) -> dict:
    """Calls per cold and per warm NOP invocation on one node, in total,
    by layer and for the most-called functions: ``invocations`` cold
    NOPs of distinct functions, then a warm one of each (its idle UC
    dropped), profiled after as many of each have run unprofiled."""
    from repro.sim import Environment
    from repro.workload.functions import unique_nop_set

    node = SeussNode(Environment())
    node.initialize_sync()
    fns = unique_nop_set(2 * invocations)
    warmup, profiled = fns[:invocations], fns[invocations:]

    def invoke(batch):
        for fn in batch:
            node.invoke_sync(fn)

    def drop_idle(batch):
        for fn in batch:
            node.uc_cache.drop_function(fn.key)

    invoke(warmup)
    drop_idle(warmup)
    invoke(warmup)
    census = {"cold": _calls_per_invocation(lambda: invoke(profiled), invocations)}
    drop_idle(profiled)
    census["warm"] = _calls_per_invocation(lambda: invoke(profiled), invocations)
    return census


def _events_by_kind(env, process) -> Counter:
    """Engine events processed until ``process`` is, by event class."""
    kinds: Counter = Counter()
    while not process.processed:
        env.peek()  # drops withdrawn entries at the head of the queue
        kinds[type(env._pending[0][3]).__name__] += 1
        env.step()
    return kinds


def event_census() -> dict:
    """Engine events of one NOP invocation per path on a default cluster
    of each backend, by event class (``Timeout``, ``Request``,
    ``Process`` completion, ...): cold, warm and hot on SEUSS, cold and
    hot on Linux (a Linux warm start needs a stemcell)."""
    from repro.faas.cluster import FaasCluster
    from repro.sim import Environment
    from repro.workload.functions import nop_function

    census = {}
    for backend, paths in (
        ("seuss", ("cold", "warm", "hot")),
        ("linux", ("cold", "hot")),
    ):
        env = Environment()
        cluster = getattr(FaasCluster, f"with_{backend}_node")(env)
        fn = nop_function()
        by_path = census[backend] = {}
        for path in paths:
            if path == "warm":
                cluster.nodes[0].uc_cache.drop_function(fn.key)
            process = cluster.invoke(fn)
            by_path[path] = dict(sorted(_events_by_kind(env, process).items()))
            assert process.value.path.value == path, process.value
    return census


@contextmanager
def null_tracer_calls():
    """Count the calls into :class:`NullTracer` and its shared null span
    while the block runs, by ``Class.method``."""
    calls: Counter = Counter()

    def counting(method, name):
        def counted(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return counted

    patched = [
        (cls, name, method)
        for cls in (NullTracer, _NullSpan)
        for name, method in vars(cls).items()
        if callable(method) and not name.startswith("__")
    ]
    for cls, name, method in patched:
        setattr(cls, name, counting(method, f"{cls.__name__}.{name}"))
    try:
        yield calls
    finally:
        for cls, name, method in patched:
            setattr(cls, name, method)


def null_tracer_census(backend: str) -> Counter:
    """Null-tracer calls of one untraced hot ``cluster.invoke`` on a
    cluster of ``backend`` (``"seuss"`` or ``"linux"``)."""
    from repro.faas.cluster import FaasCluster
    from repro.faas.records import InvocationPath
    from repro.sim import Environment
    from repro.workload.functions import nop_function

    env = Environment()
    build = getattr(FaasCluster, f"with_{backend}_node")
    cluster = build(env)
    fn = nop_function()
    cluster.invoke_sync(fn)
    cluster.invoke_sync(fn)
    with null_tracer_calls() as calls:
        result = cluster.invoke_sync(fn)
    assert result.path is InvocationPath.HOT, result
    return calls


def _print_calls(what: str, census: dict) -> None:
    """Print a call census: its totals, then its most-called functions."""
    print(
        f"calls per {what}:",
        {key: value for key, value in census.items() if key != "top"},
    )
    print(f"  most-called functions per {what}:")
    for function, calls in census["top"]:
        print(f"    {calls:7.1f}  {function}")


def main() -> None:
    """Print the census of an idle UC and of a cached function snapshot
    after one NOP invocation on a fresh node, then that of the client
    result of a second (hot) invocation through a cluster, then the
    bytes a cold invocation retains and the entries of the canonical
    and transition tables after it, the engine-queue census of a closed
    loop, the calls per hot, cold and warm invocation and per Linux hot
    invocation (with the most-called functions of each), the engine
    events per invocation on each path of each backend and the
    null-tracer calls of an untraced hot invocation."""
    from repro.faas.cluster import FaasCluster
    from repro.sim import Environment
    from repro.workload.functions import nop_function

    node = SeussNode(Environment())
    node.initialize_sync()
    fn = nop_function()
    node.invoke_sync(fn)
    gc.collect()
    (uc,) = dict(node.uc_cache.items())[fn.key]
    print(sys.version.split()[0])
    print("idle UC:", dict(sorted(tracked_census(uc).items())))
    snapshot = node.snapshot_cache._entries[fn.key]
    print("function snapshot:", dict(sorted(tracked_census(snapshot).items())))
    cluster = FaasCluster.with_seuss_node(Environment())
    cluster.invoke_sync(fn)
    hot = cluster.invoke_sync(fn)
    gc.collect()
    print("hot result:", dict(sorted(tracked_census(hot).items())))
    print("retained bytes per cold NOP invocation:", round(retained_bytes()))
    print("page-set tables:", table_sizes())
    print("engine queue:", queue_census())
    _print_calls("hot invocation", call_census())
    _print_calls("Linux hot invocation", call_census(backend="linux"))
    for path, census in deploy_call_census().items():
        _print_calls(f"{path} deploy", census)
    print("engine events per invocation:", event_census())
    print(
        "null-tracer calls per hot invocation:",
        {
            backend: sum(null_tracer_census(backend).values())
            for backend in ("seuss", "linux")
        },
    )
