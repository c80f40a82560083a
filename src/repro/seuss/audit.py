"""Node-state invariant auditing.

The integration and property tests hammer a node with arbitrary
workloads and then call :func:`audit_node`; a healthy node of either
type reports no findings.  Auditable invariants:

* allocator category tallies sum to the allocated total;
* each idle pool's count equals its buckets' total, no bucket is empty
  and its policy tracks exactly its keys (:func:`audit_pool`);
* the snapshot cache's held-page counter matches what its entries
  hold: each entry's private pages (its footprint less the pages it
  routes through the dedup frame table) plus, once, each shared chunk
  any entry holds (without dedup, the sum of the entries' footprints);
  every entry is alive and retained, and no entry is an orphan;
* every cached idle UC is in the IDLE state with a live base snapshot;
* each cache's eviction policy tracks exactly the keys the cache holds;
* each idle UC's channel is open and is the channel its core's proxy
  maps at that port;
* snapshot parent links are acyclic and never point at deleted
  snapshots;
* on a Linux node, every idle container is IDLE and bound to its key,
  container-category pages and bridge endpoints each equal the
  materialized containers (idle + busy + stemcells, plus Table 3's raw
  instances; a KSM scanner freeing merged container pages breaks the
  page law by design), and the containers never exceed the cache
  limit.
"""

from __future__ import annotations

from functools import partial
from typing import List

from repro.linuxnode.instances import InstanceKind, InstanceState
from repro.linuxnode.node import LinuxNode
from repro.mem.snapshot import Snapshot
from repro.unikernel.context import UCState


def audit_allocator(allocator) -> List[str]:
    issues: List[str] = []
    stats = allocator.stats()
    category_sum = sum(stats.by_category.values())
    if category_sum != stats.allocated_pages:
        issues.append(
            f"allocator: categories sum to {category_sum}, "
            f"allocated is {stats.allocated_pages}"
        )
    if stats.allocated_pages > stats.total_pages:
        issues.append("allocator: allocated exceeds total")
    if any(pages < 0 for pages in stats.by_category.values()):
        issues.append("allocator: negative category tally")
    return issues


def audit_snapshot_lineage(snapshot: Snapshot, limit: int = 64) -> List[str]:
    issues: List[str] = []
    seen = set()
    node = snapshot
    depth = 0
    while node is not None:
        if id(node) in seen:
            issues.append(f"snapshot {snapshot.name!r}: lineage cycle")
            break
        seen.add(id(node))
        if node.deleted:
            issues.append(
                f"snapshot {snapshot.name!r}: lineage contains deleted "
                f"snapshot {node.name!r}"
            )
        depth += 1
        if depth > limit:
            issues.append(f"snapshot {snapshot.name!r}: lineage deeper than {limit}")
            break
        node = node.parent
    return issues


def audit_policy(name: str, policy, keys) -> List[str]:
    """A policy must track exactly its cache's keys: a victim it names
    must be present, and every entry must be reachable as a victim."""
    keys = list(keys)
    if len(policy) == len(keys) and all(key in policy for key in keys):
        return []
    return [
        f"{name}: {policy.name} policy tracks {len(policy)} keys, "
        f"cache holds {len(keys)} ({sum(key in policy for key in keys)} shared)"
    ]


def audit_pool(name: str, pool, check) -> List[str]:
    """What every :class:`~repro.seuss.idle_pool.IdlePool` must hold,
    plus ``check(key, instance)``'s findings for each parked instance.
    An empty bucket is a finding: eviction indexes the buckets by the
    policy's victim, which never names one."""
    issues: List[str] = []
    parked = pool.items()
    total = 0
    for key, instances in parked:
        if not instances:
            issues.append(f"{name}: {key!r} has an empty bucket")
        total += len(instances)
        for instance in instances:
            issues.extend(check(key, instance))
    if total != len(pool):
        issues.append(f"{name}: counter {len(pool)} != bucket total {total}")
    issues.extend(audit_policy(name, pool._policy, [key for key, _ in parked]))
    return issues


def _idle_uc_issues(node, key: str, uc) -> List[str]:
    issues: List[str] = []
    if uc.state is not UCState.IDLE:
        issues.append(f"uc cache: {key!r} holds UC in state {uc.state}")
    if uc.space.base is None or uc.space.base.deleted:
        issues.append(f"uc cache: {key!r} UC has dead base snapshot")
    channel = uc.channel
    proxy = node.network.proxy_for(uc.uc_id)
    if (
        channel is None
        or channel.closed
        or proxy._channels.get(channel.port) is not channel
    ):
        issues.append(
            f"network: idle UC {uc.name} ({key!r}) has no channel "
            f"mapped on core {proxy.core}'s proxy"
        )
    return issues


def _idle_container_issues(key: str, container) -> List[str]:
    issues: List[str] = []
    if container.state is not InstanceState.IDLE:
        issues.append(
            f"idle containers: {key!r} holds a container in state "
            f"{container.state}"
        )
    if container.fn_key != key:
        issues.append(
            f"idle containers: {key!r} holds a container bound to "
            f"{container.fn_key!r}"
        )
    return issues


def _audit_linux_node(node) -> List[str]:
    """Audit a :class:`~repro.linuxnode.node.LinuxNode`'s idle pool and
    the laws tying its container counters to memory, the bridge and the
    cache limit; :func:`audit_node` calls it."""
    issues = audit_pool("idle containers", node.idle_pool, _idle_container_issues)
    if node._busy_count < 0 or node._creating_count < 0:
        issues.append(
            f"containers: negative counter (busy {node._busy_count}, "
            f"creating {node._creating_count})"
        )
    raw = node.raw_instances
    containers = (
        len(node.idle_pool)
        + node._busy_count
        + len(node.stemcells)
        + len(raw[InstanceKind.CONTAINER])
    )
    footprint = InstanceKind.CONTAINER.footprint_pages(node.costs.linux)
    held = node.allocator.category_pages(InstanceKind.CONTAINER.value)
    if held != containers * footprint:
        issues.append(
            f"containers: {held} pages held, {containers} containers "
            f"of {footprint} pages each"
        )
    endpoints = containers + len(raw[InstanceKind.MICROVM])
    if node.bridge.endpoints != endpoints:
        issues.append(
            f"bridge: {node.bridge.endpoints} endpoints, {endpoints} "
            f"containers and microVMs"
        )
    limit = node.config.container_cache_limit
    if node.total_containers > limit:
        issues.append(
            f"containers: {node.total_containers} past the cache limit "
            f"of {limit}"
        )
    return issues


def audit_node(node) -> List[str]:
    """Audit a :class:`~repro.seuss.node.SeussNode` or a
    :class:`~repro.linuxnode.node.LinuxNode`; returns findings."""
    issues = audit_allocator(node.allocator)
    if isinstance(node, LinuxNode):
        return issues + _audit_linux_node(node)

    # -- snapshot cache ---------------------------------------------------
    cache = node.snapshot_cache
    # Recompute the cache's charging law from its entries alone: each
    # entry's private pages, plus each shared chunk once, whichever
    # entries hold it.
    held = 0
    chunk_ids = set()
    for key, snapshot in cache._entries.items():
        held += snapshot.footprint_pages - snapshot.shared_pages
        chunk_ids.update(snapshot._chunk_ids)
        if snapshot.deleted:
            issues.append(f"snapshot cache: {key!r} entry is deleted")
        if snapshot.refcount < 1:
            issues.append(f"snapshot cache: {key!r} entry is unretained")
        issues.extend(audit_snapshot_lineage(snapshot))
    if chunk_ids:
        held += sum(node.dedup.table.chunk_pages(cid) for cid in chunk_ids)
    if held != cache._held_pages:
        issues.append(
            f"snapshot cache: held-page counter {cache._held_pages} "
            f"!= entries total {held}"
        )
    issues.extend(audit_policy("snapshot cache", cache._policy, cache._entries))

    # -- idle UC pool -----------------------------------------------------
    issues.extend(
        audit_pool("uc cache", node.uc_cache, partial(_idle_uc_issues, node))
    )

    # -- runtime snapshots ---------------------------------------------------
    for name, record in node.runtime_records.items():
        if record.snapshot.deleted:
            issues.append(f"runtime snapshot {name!r} deleted while registered")
        if record.snapshot.refcount < 1:
            issues.append(f"runtime snapshot {name!r} unretained")
    return issues
