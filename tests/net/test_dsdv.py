"""Tests for the DSDV baseline."""

import pytest

from repro.net.dsdv import INFINITY, DsdvConfig
from tests.conftest import line_network


def settle(net, until=12.0):
    """Let a few update periods elapse so tables converge."""
    net.run(until=until)


class TestConvergence:
    def test_tables_converge_to_true_distances(self):
        net = line_network("dsdv", n=5)
        settle(net)
        for i in range(5):
            for j in range(5):
                if i == j:
                    continue
                route = net.protocols[i].routes.get(j)
                assert route is not None and route.valid, (i, j)
                assert route.hops == abs(i - j)

    def test_next_hops_point_the_right_way(self):
        net = line_network("dsdv", n=4)
        settle(net)
        assert net.protocols[0].routes[3].next_hop == 1
        assert net.protocols[3].routes[0].next_hop == 2

    def test_data_flows_without_any_discovery(self):
        net = line_network("dsdv", n=5)
        settle(net)
        net.protocols[0].send_data(4)
        net.run(until=net.simulator.now + 2.0)
        assert net.metrics.delivered == 1
        assert net.metrics.deliveries[0].hops == 4
        assert net.channel.tx_count_by_kind.get("rreq", 0) == 0

    def test_early_data_buffered_until_routes_exist(self):
        net = line_network("dsdv", n=3)
        net.protocols[0].send_data(2)  # before any update exchange
        settle(net, until=15.0)
        assert net.metrics.delivered == 1

    def test_control_traffic_is_periodic(self):
        config = DsdvConfig(update_period_s=1.0, update_jitter_s=0.1)
        net = line_network("dsdv", n=3, protocol_config=config)
        net.run(until=10.5)
        updates = net.channel.tx_count_by_kind["announce"]
        # 3 nodes × ~10 periods, modulo jitter and collisions.
        assert 24 <= updates <= 33


class TestFreshness:
    def test_newer_sequence_wins_even_with_worse_metric(self):
        net = line_network("dsdv", n=3)
        settle(net)
        protocol = net.protocols[0]
        route = protocol.routes[2]
        old_seq = route.seq
        # Inject a fresher but worse advertisement by hand.
        from repro.mac.frame import Frame
        from repro.net.packet import Packet, PacketKind
        from repro.phy.radio import Reception
        update = Packet(kind=PacketKind.ANNOUNCE, origin=1, seq=999,
                        payload={2: (old_seq + 2, 5)})
        frame = Frame(src=1, dst=None, seq=0, payload=update, size_bytes=100)
        protocol._on_update(update, Reception(frame, src=1, power_dbm=-50))
        assert protocol.routes[2].hops == 6
        assert protocol.routes[2].seq == old_seq + 2

    def test_same_sequence_prefers_fewer_hops(self):
        net = line_network("dsdv", n=3)
        settle(net)
        protocol = net.protocols[0]
        route = protocol.routes[2]
        from repro.mac.frame import Frame
        from repro.net.packet import Packet, PacketKind
        from repro.phy.radio import Reception
        worse = Packet(kind=PacketKind.ANNOUNCE, origin=1, seq=999,
                       payload={2: (route.seq, route.hops + 3)})
        frame = Frame(src=1, dst=None, seq=0, payload=worse, size_bytes=100)
        protocol._on_update(worse, Reception(frame, src=1, power_dbm=-50))
        assert protocol.routes[2].hops == route.hops  # unchanged


class TestFailures:
    def test_broken_link_advertised_and_healed(self):
        # 0-1-2-3 line plus nothing else: kill node 1, node 0 loses all
        # routes (no alternative), marks them infinite.
        net = line_network("dsdv", n=4)
        settle(net)
        net.radios[1].set_power(False)
        net.protocols[0].send_data(3)
        net.run(until=net.simulator.now + 10.0)
        route = net.protocols[0].routes.get(3)
        assert route is None or not route.valid or route.next_hop != 1 \
            or route.hops >= INFINITY

    def test_recovers_after_node_returns(self):
        config = DsdvConfig(update_period_s=1.0, pending_timeout_s=30.0)
        net = line_network("dsdv", n=4, protocol_config=config)
        settle(net)
        net.radios[1].set_power(False)
        net.run(until=net.simulator.now + 5.0)
        net.radios[1].set_power(True)
        net.run(until=net.simulator.now + 6.0)  # a few update rounds
        net.protocols[0].send_data(3)
        net.run(until=net.simulator.now + 3.0)
        assert net.metrics.delivered == 1
