"""Audit-module and ASCII-plot tests."""

from __future__ import annotations

import pytest

from repro.linuxnode.config import LinuxNodeConfig
from repro.linuxnode.instances import InstanceKind
from repro.linuxnode.node import LinuxNode
from repro.metrics.ascii_plot import burst_figure, scatter
from repro.seuss.audit import audit_allocator, audit_node, audit_snapshot_lineage
from repro.unikernel.context import UCLifecycleError, UCState
from repro.workload.functions import io_bound_function, nop_function
from tests.conftest import make_seuss_node


class TestAudit:
    def test_fresh_node_is_clean(self, seuss_node):
        assert audit_node(seuss_node) == []

    def test_node_stays_clean_under_churn(self, seuss_node):
        for index in range(40):
            fn = nop_function(owner=f"churn-{index % 7}")
            seuss_node.invoke_sync(fn)
            if index % 5 == 0:
                seuss_node.uc_cache.drop_function(fn.key)
            if index % 11 == 0:
                seuss_node.snapshot_cache.evict_key(fn.key)
        assert audit_node(seuss_node) == []

    @pytest.mark.parametrize("scope", ["tenant", "global"])
    def test_dedup_node_stays_clean_through_inserts_and_evictions(self, scope):
        """With shared chunks the cache charges a chunk to the entry that
        claimed it and uncharges it when its last holder frees it, so
        the held-page counter is the entries' private pages plus each
        shared chunk once, not the sum of their footprints."""
        node = make_seuss_node(page_dedup=True, dedup_scope=scope)
        fns = [nop_function(f"f{index}", owner=f"o{index % 3}") for index in range(6)]
        for fn in fns:
            node.invoke_sync(fn)
            assert audit_node(node) == []
        assert node.dedup.saved_pages > 0
        for fn in fns[:2]:
            assert node.snapshot_cache.evict_key(fn.key)
            assert audit_node(node) == []
        node.snapshot_cache._held_pages += 8
        issues = audit_node(node)
        assert any("held-page counter" in issue for issue in issues)

    @pytest.mark.parametrize("scope", ["tenant", "global"])
    def test_dedup_quarantine_uncharges_shared_chunks_once(self, scope):
        """Quarantine uncharges what leaves the cache with the entry: its
        private pages plus each shared chunk no remaining entry holds.
        The chunks a sibling still holds leave with the sibling's
        eviction, once."""
        node = make_seuss_node(page_dedup=True, dedup_scope=scope)
        first, second = (nop_function(name, owner="o") for name in "ab")
        for fn in (first, second):
            node.invoke_sync(fn)
        assert node.dedup.saved_pages > 0
        cache = node.snapshot_cache
        assert cache.quarantine(first.key)
        assert audit_node(node) == []
        assert cache.evict_key(second.key)
        assert audit_node(node) == []
        assert len(cache) == 0
        assert cache._held_pages == 0

    @pytest.mark.parametrize("scope", ["tenant", "global"])
    def test_dedup_chunks_of_a_quarantined_dependent_leave_with_the_last_entry(
        self, scope
    ):
        """A quarantined snapshot that a live dependent still maps keeps
        its chunks in the frame table, but they left the cache with it:
        evicting the entry that shared them uncharges them, although no
        frame returns to the pool."""
        node = make_seuss_node(page_dedup=True, dedup_scope=scope)
        first, second = (nop_function(name, owner="o") for name in "ab")
        for fn in (first, second):
            node.invoke_sync(fn)
        cache = node.snapshot_cache
        retained = cache.get(first.key)
        retained.retain()  # a live dependent
        assert cache.quarantine(first.key)
        assert audit_node(node) == []
        assert cache.evict_key(second.key)
        assert len(cache) == 0
        assert cache._held_pages == 0
        assert audit_node(node) == []
        retained.release()  # the dependent drops: the orphan is reaped
        assert retained.deleted

    @pytest.mark.parametrize("scope", ["tenant", "global"])
    def test_dedup_capture_merged_into_a_quarantined_chunk_is_charged_it(
        self, scope
    ):
        """A cold start whose capture merges into chunks only a
        quarantined snapshot holds claims no frame for them, yet its
        entry is the only one holding them: the cache charges them."""
        node = make_seuss_node(page_dedup=True, dedup_scope=scope)
        first, second = (nop_function(name, owner="o") for name in "ab")
        node.invoke_sync(first)
        cache = node.snapshot_cache
        retained = cache.get(first.key)
        retained.retain()  # a live dependent
        assert cache.quarantine(first.key)
        node.invoke_sync(second)
        snapshot = cache.get(second.key)
        assert snapshot.shared_pages > 0
        assert cache._held_pages == snapshot.footprint_pages
        assert audit_node(node) == []
        retained.release()

    def test_allocator_imbalance_detected(self, seuss_node):
        seuss_node.allocator._by_category["phantom"] = 123
        issues = audit_allocator(seuss_node.allocator)
        assert any("categories sum" in issue for issue in issues)

    def test_cache_counter_drift_detected(self, seuss_node):
        seuss_node.invoke_sync(nop_function())
        seuss_node.snapshot_cache._held_pages += 17
        issues = audit_node(seuss_node)
        assert any("held-page counter" in issue for issue in issues)

    def test_idle_uc_without_its_channel_is_named(self, seuss_node):
        """Closing one idle UC's channel and mapping a stray one on
        another proxy keeps the channel count equal to the idle-UC
        count; the audit still finds the UC."""
        for index in range(2):
            seuss_node.invoke_sync(nop_function(owner=f"c{index}"))
        idle = [uc for _, ucs in seuss_node.uc_cache.items() for uc in ucs]
        victim = idle[0]
        proxy = victim.channel.proxy
        proxy.close_channel(victim.channel)
        stray = next(p for p in seuss_node.network.proxies if p is not proxy)
        stray.open_channel(uc_id=victim.uc_id)
        assert seuss_node.network.active_channels == len(idle)
        issues = audit_node(seuss_node)
        assert len(issues) == 1
        assert victim.name in issues[0]

    def test_a_parked_uc_not_idle_is_named_and_refused_hot(self, seuss_node):
        """The pool parks whatever it is given: a UC put back in any
        state but IDLE is an audit finding while it is parked, and the
        UC itself refuses the hot invocation that takes it."""
        fn = nop_function()
        seuss_node.invoke_sync(fn)
        uc = seuss_node.uc_cache.pop(fn.key)
        uc.state = UCState.RUNNING  # parked mid-invocation
        assert seuss_node.uc_cache.put(fn.key, uc)
        assert audit_node(seuss_node) == [
            f"uc cache: {fn.key!r} holds UC in state {UCState.RUNNING}"
        ]
        with pytest.raises(UCLifecycleError, match="requires state"):
            seuss_node.invoke_sync(fn)

    def test_deleted_lineage_detected(self, allocator):
        from repro.mem.intervals import IntervalSet
        from repro.mem.snapshot import Snapshot

        base = Snapshot("base", IntervalSet([(0, 10)]), allocator)
        child = Snapshot("child", IntervalSet([(20, 30)]), allocator, parent=base)
        # Forcibly corrupt: delete the parent out from under the child.
        base._refs = 0
        base.delete()
        issues = audit_snapshot_lineage(child)
        assert any("deleted" in issue for issue in issues)

    def test_clean_lineage_passes(self, allocator):
        from repro.mem.intervals import IntervalSet
        from repro.mem.snapshot import Snapshot

        base = Snapshot("base", IntervalSet([(0, 10)]), allocator)
        child = Snapshot("child", IntervalSet([(20, 30)]), allocator, parent=base)
        assert audit_snapshot_lineage(child) == []


def linux_node_with_idle_containers(env) -> LinuxNode:
    """A Linux node at its cache limit of 3 that has been through cold
    starts, hot hits and an eviction, with two containers idle."""
    node = LinuxNode(env, config=LinuxNodeConfig(container_cache_limit=3))
    for owner in ("a", "b", "a", "c", "d"):
        env.run(until=node.invoke(nop_function(owner=owner)))
    return node


def pool_of(node):
    return node.idle_pool if isinstance(node, LinuxNode) else node.uc_cache


class TestPoolAndLinuxAudit:
    """One audit serves both node types: the pool check they share, the
    per-instance check of each, and the Linux container laws, each with
    a positive control."""

    def test_linux_node_audits_clean(self, env):
        node = linux_node_with_idle_containers(env)
        assert node.cache_policy.stats.evictions > 0
        assert len(node.idle_pool) == node.total_containers == 3
        assert audit_node(node) == []

    def test_linux_node_audits_clean_with_stemcells_and_busy_work(self, env):
        node = LinuxNode(env, config=LinuxNodeConfig(stemcell_pool_size=4))
        node.start_stemcell_pool()
        running = [node.invoke(io_bound_function(f"io{i}")) for i in range(3)]
        env.run(until=env.now + 50.0)
        assert node._busy_count == 3 and len(node.stemcells) < 4
        assert audit_node(node) == []
        env.run(until=env.all_of(running))
        assert audit_node(node) == []

    def test_linux_node_audits_clean_with_raw_instances(self, env):
        """Table 3's raw containers and microVMs hold container pages
        and bridge endpoints on the same node; the laws count them."""
        node = linux_node_with_idle_containers(env)
        for kind in InstanceKind:
            env.run(until=env.process(node.deploy_instance(kind)))
        assert node.bridge.endpoints == node.total_containers + 2
        assert audit_node(node) == []

    @pytest.fixture(params=["seuss", "linux"])
    def node(self, request, env):
        if request.param == "seuss":
            node = make_seuss_node()
            for owner in ("a", "b"):
                node.invoke_sync(nop_function(owner=owner))
            return node
        return linux_node_with_idle_containers(env)

    def test_drifted_pool_counter_is_named(self, node):
        pool_of(node)._count += 1
        issues = audit_node(node)
        assert any("!= bucket total" in issue for issue in issues), issues

    def test_empty_bucket_is_named(self, node):
        """The defect a rejected put once left behind: a bucket with no
        instance, which eviction cannot index by any victim."""
        pool_of(node)._buckets["ghost/fn"] = []
        issues = audit_node(node)
        assert any("'ghost/fn' has an empty bucket" in i for i in issues), issues

    def test_idle_container_bound_elsewhere_is_named(self, env):
        node = linux_node_with_idle_containers(env)
        (key, (container, *_)), *_ = node.idle_pool.items()
        container.fn_key = "other/fn"
        assert audit_node(node) == [
            f"idle containers: {key!r} holds a container bound to 'other/fn'"
        ]

    def test_drifted_busy_counter_breaks_the_memory_and_bridge_laws(self, env):
        node = linux_node_with_idle_containers(env)
        node._busy_count += 1
        issues = audit_node(node)
        assert any(issue.startswith("containers: ") for issue in issues)
        assert any(issue.startswith("bridge: ") for issue in issues)

    def test_container_past_the_limit_is_named(self, env):
        node = linux_node_with_idle_containers(env)
        node._creating_count += 1  # a fourth creation under a limit of 3
        assert audit_node(node) == [
            "containers: 4 past the cache limit of 3"
        ]


class TestAsciiPlot:
    def test_scatter_renders_markers(self):
        points = [(0.0, 10.0, "."), (500.0, 100.0, "o"), (1000.0, 1000.0, "x")]
        text = scatter(points, title="demo")
        assert "demo" in text
        assert "o" in text and "x" in text
        assert "[log scale]" in text

    def test_failures_overwrite_dots(self):
        # Same cell: the 'x' must win regardless of insertion order.
        text = scatter([(0.0, 10.0, "x"), (0.0, 10.0, ".")], width=16, height=4)
        plot_area = "".join(
            line.split("|", 1)[1] for line in text.splitlines() if "|" in line
        )
        assert "x" in plot_area
        assert "." not in plot_area

    def test_empty_points(self):
        assert "(no data)" in scatter([], title="t")

    def test_size_validation(self):
        with pytest.raises(ValueError):
            scatter([(0, 1, ".")], width=4, height=4)

    def test_burst_figure_from_result(self):
        from repro.faas.cluster import FaasCluster
        from repro.sim import Environment
        from repro.workload.burst import BurstConfig, BurstWorkload

        cluster = FaasCluster.with_seuss_node(Environment())
        config = BurstConfig(
            burst_interval_ms=1000,
            burst_count=2,
            burst_size=4,
            background_workers=4,
            background_functions=2,
            background_rate_per_s=20.0,
            warmup_ms=200.0,
        )
        result = BurstWorkload(config).run(cluster)
        text = burst_figure(result, title="SEUSS")
        assert "SEUSS" in text
        assert "o" in text  # burst markers present
