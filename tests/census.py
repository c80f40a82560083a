"""What one retained object costs the cyclic collector.

:func:`tracked_census` walks ``gc.get_referents`` from one object and
counts the GC-tracked objects it reaches that are not shared with the
rest of the node.  Plain Python only, so it also runs on interpreters
without pytest::

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


def main() -> None:
    """Print the census of an idle UC and of a cached function snapshot
    after one NOP invocation on a fresh node, then that of the client
    result of a second (hot) invocation through a cluster."""
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
