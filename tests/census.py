"""What one retained object costs the cyclic collector.

:func:`tracked_census` walks ``gc.get_referents`` from one object and
counts the GC-tracked objects it reaches that are not shared with the
rest of the node; :func:`queue_census` counts what a closed loop keeps
in the engine's queue.  Plain Python only, so it also runs on
interpreters without pytest::

    PYTHONPATH=src:. python -c "from tests.census import main; main()"
"""

from __future__ import annotations

import gc
import sys
from collections import Counter
from enum import Enum
from types import ModuleType

from repro.mem.frames import FrameAllocator
from repro.mem.snapshot import Snapshot
from repro.net.proxy import NetworkProxy
from repro.seuss.node import SeussNode
from repro.unikernel.interpreters import RuntimeSpec
from repro.unikernel.layout import MemoryLayout

#: What every UC and snapshot of a node shares; the census walk stops
#: there, so a snapshot is counted only as the root, not as a parent.
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


def tracked_census(root) -> Counter:
    """GC-tracked objects reachable from ``root`` but not shared, by
    type name.  Dicts are walked through but not counted, so the result
    does not depend on how the interpreter lays out instance dicts;
    module namespaces (a function's globals) are shared."""
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
            if id(ref) not in seen and not isinstance(ref, SHARED):
                seen.add(id(ref))
                pending.append(ref)
    return census


def queue_census() -> dict:
    """Engine-queue entries of a closed loop of the end-to-end
    benchmark's ``hot_loop`` shape (32 clients over 64 warmed NOPs):
    all pending entries, and the withdrawn timeouts among them still
    awaiting compaction.  Read once the loop has run for more than one
    request-watchdog period, so a watchdog left queued per request
    would show."""
    from repro.faas.cluster import FaasCluster
    from repro.metrics.collector import TrialMetrics
    from repro.sim import Environment
    from repro.workload.functions import unique_nop_set
    from repro.workload.generator import LoadGenerator, TrialConfig

    env = Environment()
    cluster = FaasCluster.with_seuss_node(env)
    fns = unique_nop_set(64)
    for fn in fns:
        env.run(until=cluster.invoke(fn))
    # ~9.6k invocations fit in the window at the shim's ~128.6 req/s.
    loop = LoadGenerator(fns, TrialConfig(invocation_count=12_000, workers=32))
    env.process(loop.run_process(cluster, TrialMetrics()))
    env.run(until=env.now + 1.25 * cluster.costs.platform.request_timeout_ms)
    return {"pending": len(env._pending), "withdrawn": env._withdrawn}


def main() -> None:
    """Print the census of an idle UC and of a cached function snapshot
    after one NOP invocation on a fresh node, then that of the client
    result of a second (hot) invocation through a cluster, then the
    engine-queue census of a closed loop."""
    from repro.faas.cluster import FaasCluster
    from repro.sim import Environment
    from repro.workload.functions import nop_function

    node = SeussNode(Environment())
    node.initialize_sync()
    fn = nop_function()
    node.invoke_sync(fn)
    gc.collect()
    (uc,) = node.uc_cache._idle[fn.key]
    print(sys.version.split()[0])
    print("idle UC:", dict(sorted(tracked_census(uc).items())))
    snapshot = node.snapshot_cache._entries[fn.key]
    print("function snapshot:", dict(sorted(tracked_census(snapshot).items())))
    cluster = FaasCluster.with_seuss_node(Environment())
    cluster.invoke_sync(fn)
    hot = cluster.invoke_sync(fn)
    gc.collect()
    print("hot result:", dict(sorted(tracked_census(hot).items())))
    print("engine queue:", queue_census())
