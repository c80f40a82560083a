"""The OpenWhisk shim process.

The prototype keeps OpenWhisk unmodified by running a C++ shim on Linux
that reads requests from the Kafka message bus and forwards them over a
single TCP connection to the SEUSS OS VM (§6 "FaaS Platform
Integration").  That design costs two things the evaluation calls out:

* an extra network hop adding ~8 ms to every round trip — why Linux
  wins by 21% on the hot-dominated, small-set-size trials of Figure 4;
* serialization on the shim's single TCP connection — the bottleneck
  that caps UC creation at 128.6/s in Table 3.

:class:`ShimProcess` models both: a capacity-1 resource with a fixed
per-request service time, plus a propagation delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.costs import PlatformCostModel
from repro.sim import Environment, Resource


@dataclass
class ShimStats:
    forwarded: int = 0
    busy_ms: float = 0.0


class ShimProcess:
    """Kafka-to-SEUSS-OS forwarding shim with one TCP connection."""

    def __init__(self, env: Environment, costs: PlatformCostModel) -> None:
        self.env = env
        self.costs = costs
        #: The single TCP connection between the shim and the VM.
        self.connection = Resource(env, capacity=1)
        self.stats = ShimStats()
        #: Per-request delay not spent holding the connection, fixed by
        #: the (frozen) cost model.
        self.propagation_ms = max(0.0, costs.shim_rtt_ms - costs.shim_service_ms)

    def forward(self) -> Generator:
        """Sim process: push one request through the shim hop."""
        request = self.connection.request()
        yield request
        try:
            yield self.env.timeout(self.costs.shim_service_ms)
        finally:
            self.connection.release(request)
        yield self.env.timeout(self.propagation_ms)
        self.stats.forwarded += 1
        self.stats.busy_ms += self.costs.shim_service_ms

    @property
    def max_rate_per_s(self) -> float:
        """The serialization-imposed ceiling on request rate."""
        return 1000.0 / self.costs.shim_service_ms
