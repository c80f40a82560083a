"""The SEUSS method: serverless execution via unikernel snapshots.

This package is the paper's primary contribution: a compute node that
deploys serverless functions from unikernel snapshots, caches function
state in snapshot stacks, applies anticipatory optimizations, and
reclaims idle contexts under memory pressure.

The public entry point is :class:`repro.seuss.node.SeussNode`.
"""

from repro.seuss.ao import AOLevel, AOReport, apply_anticipatory_optimizations
from repro.seuss.config import SeussConfig
from repro.seuss.idle_pool import IdlePool
from repro.seuss.node import SeussNode
from repro.seuss.shim import ShimProcess
from repro.seuss.snapshots import SnapshotCache

__all__ = [
    "AOLevel",
    "AOReport",
    "IdlePool",
    "SeussConfig",
    "SeussNode",
    "ShimProcess",
    "SnapshotCache",
    "apply_anticipatory_optimizations",
]
