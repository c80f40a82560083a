"""Shared fixtures."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.faas.cluster import FaasCluster
from repro.mem.frames import FrameAllocator, node_allocator
from repro.mem.intervals import clear_interned
from repro.seuss.config import AOLevel, SeussConfig
from repro.seuss.node import SeussNode
from repro.sim import Environment
from repro.unikernel.interpreters import NODEJS
from repro.workload.functions import unique_nop_set
from repro.workload.generator import run_trial


@pytest.fixture(autouse=True)
def fresh_page_set_table():
    """Start every test from an empty table of canonical page sets, so
    what a test asserts about sharing never depends on the tests before
    it (a clear mid-test only loses sharing, never a result)."""
    clear_interned()


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def allocator() -> FrameAllocator:
    """A node-sized allocator (88 GB, 512 MB reserved)."""
    return node_allocator(88.0, 512.0)


@pytest.fixture
def small_allocator() -> FrameAllocator:
    """A tiny allocator for OOM-path tests (4096 pages = 16 MB)."""
    return FrameAllocator(4096)


@pytest.fixture
def nodejs():
    return NODEJS


@pytest.fixture
def seuss_node(env) -> SeussNode:
    """An initialized SEUSS node with full AO."""
    node = SeussNode(env)
    node.initialize_sync()
    return node


def make_seuss_node(ao_level: AOLevel = AOLevel.NETWORK_AND_INTERPRETER, **kwargs):
    """Helper for tests needing custom node configs."""
    node = SeussNode(Environment(), SeussConfig(ao_level=ao_level, **kwargs))
    node.initialize_sync()
    return node


def oom_trial():
    """A SEUSS trial whose node runs out of memory after core grants:
    800 NOP invocations (5 ms each) over 400 functions, 64 workers, on
    0.6 GB with no idle-UC cache.  Returns ``(cluster, trial)``; about
    half the invocations fail."""
    cluster = FaasCluster.with_seuss_node(
        Environment(),
        config=SeussConfig(
            memory_gb=0.6,
            system_reserved_mb=0,
            oom_threshold_mb=0,
            cache_idle_ucs=False,
        ),
    )
    functions = [replace(fn, exec_ms=5.0) for fn in unique_nop_set(400)]
    trial = run_trial(cluster, functions, invocation_count=800, workers=64, seed=1)
    return cluster, trial
