"""The OpenWhisk shim process.

The prototype keeps OpenWhisk unmodified by running a C++ shim on Linux
that reads requests from the Kafka message bus and forwards them over a
single TCP connection to the SEUSS OS VM (§6 "FaaS Platform
Integration").  That design costs two things the evaluation calls out:

* an extra network hop adding ~8 ms to every round trip — why Linux
  wins by 21% on the hot-dominated, small-set-size trials of Figure 4;
* serialization on the shim's single TCP connection — the bottleneck
  that caps UC creation at 128.6/s in Table 3.

:class:`ShimProcess` models both as a FIFO line: requests take the
connection one at a time in arrival order, each holding it for a fixed
service time, then travel a fixed propagation delay.  A fixed-service
FIFO single server fixes each request's departure when it arrives
(Lindley's recursion: it starts when both it and the connection are
there), so the shim computes it and the request waits on one timeout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.costs import PlatformCostModel
from repro.sim import Environment


@dataclass
class ShimStats:
    forwarded: int = 0
    busy_ms: float = 0.0


class ShimProcess:
    """Kafka-to-SEUSS-OS forwarding shim with one TCP connection."""

    def __init__(self, env: Environment, costs: PlatformCostModel) -> None:
        self.env = env
        self.costs = costs
        self.stats = ShimStats()
        #: Per-request delay not spent holding the connection, fixed by
        #: the (frozen) cost model.
        self.propagation_ms = max(0.0, costs.shim_rtt_ms - costs.shim_service_ms)
        #: When the single TCP connection finishes sending the last
        #: request on it, and is free for the next.
        self.free_at = env.now

    def forward(self) -> Generator:
        """Sim process: push one request through the shim hop.

        The request takes the connection at ``max(now, free_at)``, holds
        it for ``shim_service_ms`` and reaches the VM ``propagation_ms``
        after letting go: the instants a capacity-1 FIFO resource would
        grant and release it at, reached with one timeout.  ``stats``
        count the request at its departure.  A request on the wire is
        sent anyway: an interrupt inside the hop ends the caller's wait
        (and the request is not counted), but the connection stays
        taken until the request's service would have ended.
        """
        env = self.env
        service_ms = self.costs.shim_service_ms
        start = max(env.now, self.free_at)
        self.free_at = free_at = start + service_ms
        yield env.timeout_at(free_at + self.propagation_ms)
        self.stats.forwarded += 1
        self.stats.busy_ms += service_ms

    @property
    def max_rate_per_s(self) -> float:
        """The serialization-imposed ceiling on request rate."""
        return 1000.0 / self.costs.shim_service_ms
