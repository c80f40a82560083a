"""Stateful property tests for the Linux node's container accounting."""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.linuxnode.config import LinuxNodeConfig
from repro.linuxnode.node import LinuxNode
from repro.seuss.audit import audit_node
from repro.sim import Environment
from repro.workload.functions import nop_function

FN_INDICES = st.integers(min_value=0, max_value=4)


class LinuxNodeMachine(RuleBasedStateMachine):
    @initialize()
    def build_node(self):
        self.env = Environment()
        self.node = LinuxNode(
            self.env,
            config=LinuxNodeConfig(
                container_cache_limit=12,
                stemcell_pool_size=4,
                seed=17,
            ),
        )
        self.node.start_stemcell_pool()
        self.functions = [nop_function(owner=f"lsm-{i}") for i in range(5)]

    @rule(index=FN_INDICES)
    def invoke(self, index):
        result = self.env.run(until=self.node.invoke(self.functions[index]))
        # Either it worked or it was a bridge-failure error; both legal.
        assert result.path is not None

    @rule(count=st.integers(min_value=1, max_value=3))
    def repeated_invokes(self, count):
        procs = [
            self.env.run(until=self.node.invoke(self.functions[i % 5]))
            for i in range(count)
        ]
        assert len(procs) == count

    @rule(indices=st.lists(FN_INDICES, min_size=2, max_size=6))
    def concurrent_invokes(self, indices):
        """Start several invocations at one instant and run them all to
        completion: they overlap, so two cold starts can meet a full
        cache together, which the one-at-a-time rules never do."""
        procs = [self.node.invoke(self.functions[i]) for i in indices]
        self.env.run(until=self.env.all_of(procs))
        assert all(proc.value.path is not None for proc in procs)

    @rule()
    def let_time_pass(self):
        self.env.run(until=self.env.now + 500.0)

    # -- invariants ------------------------------------------------------
    @invariant()
    def node_audits_clean(self):
        """The idle pool balances and tracks its policy, and the
        container counters agree with memory, the bridge and the cache
        limit (in-flight creations have not allocated yet)."""
        if not hasattr(self, "node"):
            return
        assert audit_node(self.node) == []


TestLinuxNodeStateful = LinuxNodeMachine.TestCase
TestLinuxNodeStateful.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
