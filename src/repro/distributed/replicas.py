"""Remote-warm deploys: ship a peer's snapshot replica, then invoke.

Between *warm* (the function's snapshot is cached on this node) and
*cold* (it is cached nowhere) sits **remote-warm**: a peer holds the
snapshot, so its ~2 MB diff crosses the interconnect and the routed
node deploys from the installed replica, skipping import and compile
just like a local warm start.

A cluster built with ``FaasCluster(replication=strategy)`` owns one
:class:`ReplicaFetcher` and sets it as ``node.replicas`` on every node
it serves; the node's own invocation
(:func:`repro.seuss.invoker.invoke_on_node`) fetches a replica when
its idle-UC and snapshot lookups both miss.  Holders are read from
each node's own snapshot cache, so evictions, crashes and quarantines
need no replica registry kept in step.
"""

from __future__ import annotations

from typing import Callable, Generator, Sequence

from repro.distributed.transfer import ClusterInterconnect, TransferStrategy
from repro.errors import ConfigError, OutOfMemoryError
from repro.sim import Environment


class ReplicaFetcher:
    """One transfer strategy plus the interconnect it ships over."""

    def __init__(
        self,
        env: Environment,
        nodes: Sequence,
        strategy: TransferStrategy,
        load_of: Callable[[object], int],
    ) -> None:
        self.strategy = strategy
        #: Peer load signal: the least-loaded holder serves the replica.
        self.load_of = load_of
        self.nodes = []
        for node in nodes:
            self._serve(node)
        #: One NIC per node, indexed like :attr:`nodes`.
        self.interconnect = ClusterInterconnect(env, len(self.nodes))

    def add_node(self, node) -> None:
        self._serve(node)
        self.interconnect.add_node()

    def _serve(self, node) -> None:
        if not hasattr(node, "install_snapshot"):
            raise ConfigError(f"replication needs SEUSS nodes, got {node!r}")
        node.replicas = self
        self.nodes.append(node)

    def fetch(self, node, fn) -> Generator:
        """Sim process: install a peer's replica of ``fn`` on ``node``.

        ``node``'s invocation calls it once its idle-UC and snapshot
        lookups both missed.  Returns the
        :class:`~repro.distributed.transfer.TransferPlan` once the
        replica is installed, or ``None`` when none was: no live peer
        holds the snapshot, ``node`` went down, or it has no memory
        left for the replica.
        """
        key = fn.key
        if node.crashed:
            return None
        holders = [
            (self.load_of(peer), index)
            for index, peer in enumerate(self.nodes)
            if peer is not node
            and not peer.crashed
            and key in peer.snapshot_cache
        ]
        if not holders:
            return None
        source_id = min(holders)[1]
        source = self.nodes[source_id]
        snapshot = source.snapshot_cache.peek(key)
        pages = snapshot.pages
        # The working-set manifest travels with the diff (it is tiny
        # next to it): RECORDED sizes its upfront set from it, and the
        # destination prefetches from it.
        manifest = source.working_sets.get(key)
        plan = yield from self.interconnect.transfer(
            source_id,
            self.nodes.index(node),
            snapshot.size_mb,
            self.strategy,
            manifest=manifest,
            resident_fraction=_resident_fraction(node, fn, snapshot.page_count),
        )
        if node.crashed:
            return None  # down mid-transfer: its caches rebuild cold
        try:
            node.install_snapshot(key, pages, fn.runtime)
        except OutOfMemoryError:
            return None
        if manifest is not None:
            node.working_sets.install(key, manifest)
        return plan


def _resident_fraction(node, fn, page_count: int) -> float:
    """Share of the diff already resident in ``node``'s dedup frame
    table: those pages merge on arrival and never cross the wire."""
    dedup = node.dedup
    if dedup is None or not dedup.capture_enabled:
        return 0.0
    namespace = dedup.namespace(fn.key, fn.runtime)
    if namespace is None:
        return 0.0
    return dedup.resident_fraction(namespace, page_count)
