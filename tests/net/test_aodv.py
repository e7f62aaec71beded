"""Tests for the AODV baseline."""

import numpy as np
import pytest

from repro.net.aodv import AodvConfig
from repro.net.packet import PacketKind
from tests.conftest import line_network


class TestDiscoveryAndForwarding:
    def test_data_delivered_along_line(self):
        net = line_network("aodv", n=5)
        net.protocols[0].send_data(4)
        net.run(until=5.0)
        assert net.metrics.delivered == 1
        assert net.metrics.deliveries[0].hops == 4

    def test_routes_learned_in_both_directions(self):
        net = line_network("aodv", n=4)
        net.protocols[0].send_data(3)
        net.run(until=5.0)
        # Reverse routes toward the source at every node the RREQ crossed.
        assert net.protocols[3].routes[0].next_hop == 2
        # Forward routes toward the destination along the RREP path.
        assert net.protocols[0].routes[3].next_hop == 1
        assert net.protocols[1].routes[3].next_hop == 2

    def test_hop_counts_in_routing_tables(self):
        net = line_network("aodv", n=5)
        net.protocols[0].send_data(4)
        net.run(until=5.0)
        for i in range(1, 5):
            assert net.protocols[i].routes[0].hops == i

    def test_data_uses_unicast_with_mac_acks(self):
        net = line_network("aodv", n=3)
        net.protocols[0].send_data(2)
        net.run(until=5.0)
        assert net.channel.tx_count_by_kind["mac_ack"] >= 3  # rrep + 2 data hops

    def test_second_packet_reuses_route(self):
        net = line_network("aodv", n=4)
        net.protocols[0].send_data(3)
        net.run(until=5.0)
        rreqs = net.channel.tx_count_by_kind["rreq"]
        net.protocols[0].send_data(3)
        net.run(until=10.0)
        assert net.channel.tx_count_by_kind["rreq"] == rreqs
        assert net.metrics.delivered == 2

    def test_rreq_flood_reaches_whole_line(self):
        net = line_network("aodv", n=5)
        net.protocols[0].send_data(4)
        net.run(until=5.0)
        # Blind flooding: every node except the destination rebroadcasts.
        assert net.channel.tx_count_by_kind["rreq"] == 4

    def test_discovery_failure_drops_buffered_data(self):
        config = AodvConfig(rreq_timeout_s=0.2, max_rreq_retries=1)
        net = line_network("aodv", n=3, spacing=2000.0, protocol_config=config)
        net.protocols[0].send_data(2)
        net.run(until=5.0)
        assert net.metrics.delivered == 0
        assert net.protocols[0].data_dropped == 1


class TestRouteMaintenance:
    def test_link_failure_invalidates_route_and_rediscovers(self):
        net = line_network("aodv", n=4)
        net.protocols[0].send_data(3)
        net.run(until=5.0)
        assert net.metrics.delivered == 1

        # Node 1 (the next hop from the source) dies.  The source's next
        # packet fails at the MAC, triggers rediscovery — and with node 1
        # dead and no alternative path on a line, delivery fails; the route
        # via node 1 must be invalidated.
        net.radios[1].set_power(False)
        net.protocols[0].send_data(3)
        net.run(until=15.0)
        assert net.protocols[0].link_failures >= 1
        assert not net.protocols[0].routes[3].valid or \
            net.protocols[0].routes[3].next_hop != 1

    def test_failover_to_alternate_path(self):
        # Diamond: 0 — {1, 2} — 3.  After the route through the first relay
        # breaks, rediscovery finds the other relay.
        positions = np.array([
            [0.0, 0.0], [200.0, 60.0], [200.0, -60.0], [400.0, 0.0]])
        from repro.experiments.common import ScenarioConfig, build_protocol_network
        net = build_protocol_network(
            "aodv", ScenarioConfig(n_nodes=4, positions=positions,
                                   range_m=250.0, seed=3))
        net.protocols[0].send_data(3)
        net.run(until=5.0)
        assert net.metrics.delivered == 1
        used = net.protocols[0].routes[3].next_hop
        assert used in (1, 2)

        net.radios[used].set_power(False)
        net.protocols[0].send_data(3)
        net.run(until=15.0)
        assert net.metrics.delivered == 2
        other = 1 if used == 2 else 2
        assert net.metrics.deliveries[1].path == (other,)
        # Unlike Routeless Routing, AODV needed a fresh discovery flood.
        assert net.protocols[0].rreqs_sent >= 2

    def test_rerr_propagates_to_source(self):
        # 0—1—2—3: break the 2→3 link mid-route.  Node 2 detects the MAC
        # failure when forwarding and sends a RERR that reaches node 1 and
        # the source, which invalidate their routes to 3.
        net = line_network("aodv", n=4)
        net.protocols[0].send_data(3)
        net.run(until=5.0)

        net.radios[3].set_power(False)
        net.protocols[0].send_data(3)
        net.run(until=15.0)
        assert net.protocols[2].rerrs_sent >= 1
        route = net.protocols[0].routes.get(3)
        assert route is None or not route.valid

    def test_route_expiry(self):
        config = AodvConfig(route_lifetime_s=1.0)
        net = line_network("aodv", n=3, protocol_config=config)
        net.protocols[0].send_data(2)
        net.run(until=5.0)
        rreqs = net.channel.tx_count_by_kind["rreq"]
        # Well past the lifetime, a new packet needs a new discovery.
        net.protocols[0].send_data(2)
        net.run(until=10.0)
        assert net.channel.tx_count_by_kind["rreq"] > rreqs
        assert net.metrics.delivered == 2


class TestRouteLearnedInPassing:
    def test_buffered_data_sent_once_a_route_is_learned(self):
        # Node 1 is off while node 0's RREQ goes out, so no RREP comes back.
        # Node 1 then runs its own discovery toward node 0, whose RREQ gives
        # node 0 a route to node 1.  That route answers node 0's discovery
        # at once (RFC 3561), well before its 1 s RREQ timeout.
        net = line_network("aodv", n=2)
        net.radios[1].set_power(False)
        buffered = net.protocols[0].send_data(1)
        net.run(until=0.3)
        net.radios[1].set_power(True)
        net.protocols[1].send_data(0)
        net.run(until=0.9)
        source = net.protocols[0]
        assert source._valid_route(1) is not None
        assert 1 not in source.discovery
        assert buffered.uid in [d.uid for d in net.metrics.deliveries]

        net.run(until=5.0)
        assert net.metrics.delivered == 2
        assert source.rreqs_sent == 1
        assert source.data_dropped == 0

    def test_buffered_data_leaves_ahead_of_later_packets(self):
        # Same set-up; a packet sent after the route was learned must not
        # overtake the one that waited for it.
        net = line_network("aodv", n=2)
        net.radios[1].set_power(False)
        older = net.protocols[0].send_data(1)
        net.run(until=0.3)
        net.radios[1].set_power(True)
        net.protocols[1].send_data(0)
        net.run(until=0.4)
        newer = net.protocols[0].send_data(1)
        net.run(until=0.9)
        at_node_1 = [d.uid for d in net.metrics.deliveries if d.target == 1]
        assert at_node_1 == [older.uid, newer.uid]
