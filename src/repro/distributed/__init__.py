"""Distributed SEUSS — the paper's §9 future work ("DR-SEUSS").

"We view the natural evolution of SEUSS as spanning across nodes to
provide a distributed & replicated global cache.  The read-only and
deploy-anywhere properties of unikernel snapshots suggest they can be
cloned and deployed across machines with similar hardware profiles.  A
distributed SEUSS would enable advanced sharing techniques to speed up
remote deployments, such as VM state coloring or on-demand paging."

This package holds the cross-node half of that evolution: a
cluster-interconnect transfer model with full-copy / on-demand /
state-coloring / recorded strategies (:mod:`repro.distributed.transfer`)
and the replica fetcher behind ``FaasCluster(replication=...)``, which
adds a **remote-warm** deployment path between warm and cold
(:mod:`repro.distributed.replicas`).
"""

from repro.distributed.replicas import ReplicaFetcher
from repro.distributed.transfer import (
    ClusterInterconnect,
    TransferStrategy,
    transfer_plan,
)

__all__ = [
    "ClusterInterconnect",
    "ReplicaFetcher",
    "TransferStrategy",
    "transfer_plan",
]
