"""Network-layer tests: port allocation, NAT, masquerading, UC teardown."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError
from repro.net.proxy import Channel, NetworkProxy, NodeNetwork, PortAllocator


class TestPortAllocator:
    def test_allocates_distinct_ports(self):
        ports = PortAllocator()
        first, second = ports.allocate(), ports.allocate()
        assert first != second
        assert ports.in_use == 2

    def test_release_and_reuse(self):
        ports = PortAllocator()
        port = ports.allocate()
        ports.release(port)
        assert ports.in_use == 0
        assert ports.allocate() == port  # freed ports are recycled

    def test_release_unallocated_rejected(self):
        with pytest.raises(NetworkError):
            PortAllocator().release(40_000)

    def test_exhaustion(self):
        ports = PortAllocator(start=40_000, end=40_002)
        ports.allocate()
        ports.allocate()
        with pytest.raises(NetworkError):
            ports.allocate()

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            PortAllocator(start=100, end=50)

    def test_100k_churn_does_not_exhaust_range(self):
        """Regression: sequential open/close churn far beyond the range
        size must recycle released ports instead of exhausting."""
        ports = PortAllocator()
        for _ in range(100_000):
            ports.release(ports.allocate())
        assert ports.in_use == 0
        assert ports.available == ports.capacity

    def test_100k_interleaved_churn_with_live_window(self):
        """Churn with a sliding window of live ports: never exhausts,
        never double-allocates."""
        ports = PortAllocator(start=40_000, end=40_128)
        live = []
        for index in range(100_000):
            live.append(ports.allocate())
            if len(live) >= 100:
                ports.release(live.pop(0))
            if index % 4096 == 0:
                assert len(set(live)) == len(live)  # no duplicate grants
        assert ports.in_use == len(live)
        assert len(set(live)) == len(live)


class TestNetworkProxy:
    def test_open_route_close(self):
        proxy = NetworkProxy(core=0)
        channel = proxy.open_channel(uc_id=7)
        assert proxy.route(channel.port) is channel
        proxy.close_channel(channel)
        assert proxy.active_channels == 0
        assert channel.closed

    def test_tcp_only(self):
        proxy = NetworkProxy(core=0)
        with pytest.raises(NetworkError):
            proxy.open_channel(uc_id=1, protocol="udp")
        with pytest.raises(NetworkError):
            proxy.open_channel(uc_id=1, protocol="ipv6")

    def test_unmapped_port_is_screened(self):
        proxy = NetworkProxy(core=0)
        with pytest.raises(NetworkError):
            proxy.route(55_555)
        assert proxy.stats.screened_drops == 1

    def test_masquerade_counts_traffic(self):
        proxy = NetworkProxy(core=0)
        channel = proxy.open_channel(uc_id=1)
        proxy.masquerade_outgoing(channel, nbytes=1500)
        proxy.deliver_incoming(channel.port, nbytes=500)
        assert channel.bytes_out == 1500
        assert channel.bytes_in == 500
        assert proxy.stats.masqueraded_flows == 1

    def test_masquerade_closed_channel_rejected(self):
        proxy = NetworkProxy(core=0)
        channel = proxy.open_channel(uc_id=1)
        proxy.close_channel(channel)
        with pytest.raises(NetworkError):
            proxy.masquerade_outgoing(channel)

    def test_close_idempotent(self):
        proxy = NetworkProxy(core=0)
        channel = proxy.open_channel(uc_id=1)
        proxy.close_channel(channel)
        proxy.close_channel(channel)  # no error
        assert proxy.stats.closed == 1

    def test_100k_channel_churn_releases_ports(self):
        """Regression: open/close 100k channels on one proxy — ports
        must be released on teardown, not leaked until exhaustion
        (the ephemeral range holds only ~28k)."""
        proxy = NetworkProxy(core=0)
        for index in range(100_000):
            proxy.close_channel(proxy.open_channel(uc_id=index))
        assert proxy.active_channels == 0
        assert proxy.stats.opened == proxy.stats.closed == 100_000
        assert proxy._ports.in_use == 0


class TestNodeNetwork:
    def test_channels_spread_across_core_proxies(self):
        network = NodeNetwork(cores=4)

        class FakeUC:
            def __init__(self, uc_id):
                self.uc_id = uc_id

        channels = [network.connect_uc(FakeUC(i)) for i in range(8)]
        cores = {c.core for c in channels}
        assert cores == {0, 1, 2, 3}
        assert network.active_channels == 8

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            NodeNetwork(cores=0)


class TestUCIntegration:
    def test_channel_unmapped_when_uc_destroyed(self, seuss_node):
        from repro.workload.functions import nop_function

        fn = nop_function()
        seuss_node.invoke_sync(fn)
        assert seuss_node.network.active_channels == 1  # idle UC's channel
        seuss_node.uc_cache.drop_function(fn.key)
        assert seuss_node.network.active_channels == 0

    def test_many_invocations_leak_no_channels(self, seuss_node):
        from repro.workload.functions import nop_function

        for index in range(20):
            seuss_node.invoke_sync(nop_function(owner=f"n{index}"))
        assert seuss_node.network.active_channels == 20  # one per idle UC
        seuss_node.uc_cache.clear()
        assert seuss_node.network.active_channels == 0
