"""Per-core network proxies with port-keyed NAT.

"A per-core network proxy maintains mappings for both the internal and
external networks for each unikernel instance active on that core.
Incoming traffic is screened, and the traffic destined for unikernels is
sent through an additional translation process to determine the worker
core where the UC is resident.  TCP destination ports act as the unique
key for mapping packets to an active UC."  UDP and IPv6 port mapping are
unsupported (as in the prototype), and only outgoing TCP connections may
be initiated from within a unikernel.

Each proxy numbers its ports independently from :data:`PORT_RANGE_START`,
so two cores can map the same port number at once: a port identifies a
channel only together with its core's proxy.  Making ports unique
node-wide would cap a node at one range, 28,232 mapped channels, while
the single node of the end-to-end benchmark's ``cold_sweep`` workload
already peaks at about 19k; that model change is not made here.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict

from repro.errors import NetworkError

#: Ephemeral port range used for UC channel mappings.
PORT_RANGE_START = 32_768
PORT_RANGE_END = 61_000

_channel_ids = itertools.count(1)


class PortAllocator:
    """Ephemeral TCP ports for one proxy.

    Ports released on channel teardown are recycled FIFO (oldest
    release reused first, spreading reuse across the range like the
    kernel's TIME_WAIT avoidance), so sustained channel churn — far
    more cumulative channels than the range holds — never exhausts the
    allocator, while a port is never handed out twice concurrently.
    """

    def __init__(
        self, start: int = PORT_RANGE_START, end: int = PORT_RANGE_END
    ) -> None:
        if not 0 < start < end <= 65_536:
            raise ValueError(f"invalid port range [{start}, {end})")
        self._start = start
        self._end = end
        self._next = start
        self._free: Deque[int] = deque()
        self._in_use: set = set()
        self.recycled = 0

    @property
    def in_use(self) -> int:
        return len(self._in_use)

    @property
    def capacity(self) -> int:
        return self._end - self._start

    @property
    def available(self) -> int:
        return self.capacity - len(self._in_use)

    def allocate(self) -> int:
        if self._free:
            port = self._free.popleft()
            self.recycled += 1
        elif self._next < self._end:
            port = self._next
            self._next += 1
        else:
            raise NetworkError("proxy port range exhausted")
        self._in_use.add(port)
        return port

    def release(self, port: int) -> None:
        if port not in self._in_use:
            raise NetworkError(f"releasing unmapped port {port}")
        self._in_use.remove(port)
        self._free.append(port)


@dataclass
class Channel:
    """One mapped TCP flow between SEUSS OS and a UC."""

    port: int
    uc_id: int
    core: int
    #: The proxy that maps this channel (and closes it).
    proxy: "NetworkProxy" = field(repr=False)
    channel_id: int = field(default_factory=lambda: next(_channel_ids))
    bytes_in: int = 0
    bytes_out: int = 0
    closed: bool = False


@dataclass
class ProxyStats:
    opened: int = 0
    closed: int = 0
    screened_drops: int = 0
    masqueraded_flows: int = 0


class NetworkProxy:
    """The per-core proxy: port-keyed internal + external NAT."""

    def __init__(self, core: int) -> None:
        self.core = core
        self._ports = PortAllocator()
        self._channels: Dict[int, Channel] = {}
        self.stats = ProxyStats()

    @property
    def active_channels(self) -> int:
        return len(self._channels)

    def open_channel(self, uc_id: int, protocol: str = "tcp") -> Channel:
        """Map a new flow to a UC; TCP only, as in the prototype."""
        if protocol != "tcp":
            raise NetworkError(
                f"port mapping for {protocol!r} is not supported (TCP only)"
            )
        port = self._ports.allocate()
        channel = Channel(
            port=port, uc_id=uc_id, core=self.core, proxy=self
        )
        self._channels[port] = channel
        self.stats.opened += 1
        return channel

    def route(self, port: int) -> Channel:
        """Translate an incoming packet's destination port to its UC."""
        channel = self._channels.get(port)
        if channel is None:
            # Screening: traffic with no UC mapping is dropped.
            self.stats.screened_drops += 1
            raise NetworkError(f"no UC mapped on port {port}")
        return channel

    def masquerade_outgoing(self, channel: Channel, nbytes: int = 0) -> None:
        """Rewrite an outgoing guest flow onto the host address."""
        if channel.closed:
            raise NetworkError(f"channel {channel.channel_id} is closed")
        channel.bytes_out += nbytes
        self.stats.masqueraded_flows += 1

    def deliver_incoming(self, port: int, nbytes: int = 0) -> Channel:
        channel = self.route(port)
        channel.bytes_in += nbytes
        return channel

    def close_channel(self, channel: Channel) -> None:
        if channel.closed:
            return
        channel.closed = True
        del self._channels[channel.port]
        self._ports.release(channel.port)
        self.stats.closed += 1


class NodeNetwork:
    """All per-core proxies of one SEUSS OS node."""

    def __init__(self, cores: int) -> None:
        if cores < 1:
            raise ValueError(f"cores must be >= 1, got {cores}")
        self.proxies = [NetworkProxy(core) for core in range(cores)]

    def proxy_for(self, core: int) -> NetworkProxy:
        return self.proxies[core % len(self.proxies)]

    def connect_uc(self, uc) -> Channel:
        """Open the control channel for a UC on its resident core's proxy.

        The UC keeps it as ``uc.channel`` and closes it when destroyed.
        """
        channel = self.proxy_for(uc.uc_id).open_channel(uc.uc_id)
        uc.channel = channel
        return channel

    @property
    def active_channels(self) -> int:
        return sum(proxy.active_channels for proxy in self.proxies)
