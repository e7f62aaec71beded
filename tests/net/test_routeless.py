"""Tests for Routeless Routing: the table, discovery, relay election,
arbitration, acknowledgement scoping and failure takeover."""

import numpy as np
import pytest

from repro.net.packet import PacketKind, packet_uid, uid_fields
from repro.net.routeless import ActiveNodeTable, RoutelessConfig
from repro.obs.ledger import DropReason, PacketStage
from repro.obs.observe import Observability
from tests.conftest import line_network, line_positions


class TestActiveNodeTable:
    def test_unknown_target(self):
        table = ActiveNodeTable()
        assert table.hops_to(5) is None
        assert not table.knows(5)

    def test_update_and_query(self):
        table = ActiveNodeTable()
        assert table.update(5, 3, now=0.0)
        assert table.hops_to(5) == 3

    def test_better_distance_always_accepted(self):
        table = ActiveNodeTable()
        table.update(5, 3, now=0.0)
        assert table.update(5, 2, now=0.1)
        assert table.hops_to(5) == 2

    def test_equal_distance_accepted_as_refresh(self):
        table = ActiveNodeTable()
        table.update(5, 3, now=0.0)
        assert table.update(5, 3, now=1.0)

    def test_worse_distance_rejected_while_fresh(self):
        table = ActiveNodeTable(stale_after=10.0)
        table.update(5, 3, now=0.0)
        assert not table.update(5, 7, now=1.0)
        assert table.hops_to(5) == 3

    def test_worse_distance_accepted_once_stale(self):
        table = ActiveNodeTable(stale_after=10.0)
        table.update(5, 3, now=0.0)
        assert table.update(5, 7, now=20.0)
        assert table.hops_to(5) == 7

    def test_negative_hops_rejected(self):
        with pytest.raises(ValueError):
            ActiveNodeTable().update(1, -1, now=0.0)

    def test_len_counts_targets(self):
        table = ActiveNodeTable()
        table.update(1, 1, 0.0)
        table.update(2, 2, 0.0)
        table.update(1, 1, 0.0)
        assert len(table) == 2


class TestPathDiscovery:
    def test_tables_populated_by_discovery_flood(self):
        net = line_network("routeless", n=5)
        net.protocols[0].send_data(4)
        net.run(until=5.0)
        # After the flood, every node knows its true distance to the source.
        for i in range(1, 5):
            assert net.protocols[i].table.hops_to(0) == i

    def test_reply_teaches_distance_to_destination(self):
        net = line_network("routeless", n=5)
        net.protocols[0].send_data(4)
        net.run(until=5.0)
        # The reply traveled 4→3→2→1→0; relays on the corridor learned their
        # distance to the destination.
        for i in range(4):
            assert net.protocols[i].table.hops_to(4) == 4 - i

    def test_data_delivered_after_discovery(self):
        net = line_network("routeless", n=5)
        net.protocols[0].send_data(4)
        net.run(until=5.0)
        assert net.metrics.delivered == 1
        assert net.metrics.deliveries[0].hops == 4

    def test_subsequent_packets_skip_discovery(self):
        net = line_network("routeless", n=4)
        net.protocols[0].send_data(3)
        net.run(until=5.0)
        discoveries_before = net.channel.tx_count_by_kind["path_discovery"]
        net.protocols[0].send_data(3)
        net.run(until=10.0)
        assert net.channel.tx_count_by_kind["path_discovery"] == discoveries_before
        assert net.metrics.delivered == 2

    def test_discovery_to_unreachable_target_gives_up(self):
        config = RoutelessConfig(discovery_timeout_s=0.3, max_discovery_retries=2)
        net = line_network("routeless", n=3, spacing=2000.0,
                           protocol_config=config)
        net.protocols[0].send_data(2)
        net.run(until=10.0)
        assert net.metrics.delivered == 0
        assert net.protocols[0].data_dropped == 1
        # original + 2 retries
        assert net.channel.tx_count_by_kind["path_discovery"] == 3

    def test_destination_replies_once_per_discovery(self):
        obs = Observability()
        net = line_network("routeless", n=4, obs=obs)
        net.protocols[0].send_data(3)
        net.run(until=5.0)
        # One reply origination reached the source; a duplicate reply would
        # have produced a second uid.
        reply_uids = {u for u in obs.ledger.uids()
                      if uid_fields(u)[0] is PacketKind.PATH_REPLY}
        assert len(reply_uids) == 1
        assert [e.node for uid in reply_uids for e in obs.ledger.chain(uid)
                if e.stage is PacketStage.RX and e.node == 0]


class TestRelayElection:
    def test_per_hop_acks_flow(self):
        net = line_network("routeless", n=4)
        net.protocols[0].send_data(3)
        net.run(until=5.0)
        # Reply path (3 hops) + data path (3 hops) each acked per hop-ish;
        # at minimum the target and each relay arbiter acked once.
        assert net.channel.tx_count_by_kind["net_ack"] >= 4

    def test_expected_hops_decreases_along_chain(self):
        obs = Observability()
        net = line_network("routeless", n=5, obs=obs)
        net.protocols[0].send_data(4)
        net.run(until=5.0)
        levels = [e.detail["expected_hops"]
                  for e in obs.ledger.chain(packet_uid(PacketKind.DATA, 0, 0))
                  if e.stage is PacketStage.FORWARD]
        assert len(levels) == 3
        assert levels == sorted(levels, reverse=True)

    def test_relay_state_machine_reaches_done(self):
        # Every election closed: no timer is left armed, and every arbiter
        # heard its successor before its timeout (a stuck arbiter would
        # retransmit, then give up).
        net = line_network("routeless", n=4)
        net.protocols[0].send_data(3)
        net.run(until=5.0)
        assert net.metrics.delivered == 1
        assert net.simulator.pending == 0
        assert sum(p.arbiter_retransmits for p in net.protocols) == 0
        assert sum(p.gave_up for p in net.protocols) == 0

    def test_no_arbiter_gave_up_on_clean_line(self):
        net = line_network("routeless", n=5)
        net.protocols[0].send_data(4)
        net.run(until=5.0)
        assert sum(p.gave_up for p in net.protocols) == 0


class TestFailureResilience:
    def test_relay_failure_triggers_takeover(self):
        """The headline Section 4.2 claim: kill a node on the route and the
        packet still gets through, with no discovery re-flood."""
        # Two parallel relays: either 1a (id 1) or 1b (id 2) can carry
        # 0 → 3.  Kill whichever relayed the first packet; the second packet
        # must go through the other.
        positions = np.array([
            [0.0, 0.0],      # 0: source
            [200.0, 60.0],   # 1: relay a
            [200.0, -60.0],  # 2: relay b
            [400.0, 0.0],    # 3: destination
        ])
        from repro.experiments.common import ScenarioConfig, build_protocol_network
        net = build_protocol_network(
            "routeless",
            ScenarioConfig(n_nodes=4, positions=positions, range_m=250.0, seed=3))
        net.protocols[0].send_data(3)
        net.run(until=3.0)
        assert net.metrics.delivered == 1
        first_relay = net.metrics.deliveries[0].path[0]
        assert first_relay in (1, 2)

        discoveries = net.channel.tx_count_by_kind["path_discovery"]
        net.radios[first_relay].set_power(False)
        net.protocols[0].send_data(3)
        net.run(until=8.0)
        assert net.metrics.delivered == 2
        other = 1 if first_relay == 2 else 2
        assert net.metrics.deliveries[1].path == (other,)
        # Seamless: no new discovery flood was needed.
        assert net.channel.tx_count_by_kind["path_discovery"] == discoveries

    def test_arbiter_retransmits_when_all_relays_dead(self):
        # 0 — 1 — 2: kill node 1; node 0's data cannot progress, the source
        # retransmits as arbiter and finally gives up.
        config = RoutelessConfig(arbiter_timeout_s=0.1, max_relay_retries=2)
        net = line_network("routeless", n=3, protocol_config=config)
        net.protocols[0].send_data(2)
        net.run(until=3.0)
        assert net.metrics.delivered == 1

        net.radios[1].set_power(False)
        net.protocols[0].send_data(2)
        net.run(until=8.0)
        assert net.metrics.delivered == 1  # nobody could relay
        assert sum(p.gave_up for p in net.protocols) >= 1
        assert sum(p.arbiter_retransmits for p in net.protocols) >= 1

    def test_revived_relay_serves_retransmission(self):
        # Node 1 is down when the data first goes out but revives before the
        # source's arbiter retries are exhausted: delivery succeeds late.
        config = RoutelessConfig(arbiter_timeout_s=0.2, max_relay_retries=5)
        net = line_network("routeless", n=3, protocol_config=config)
        net.protocols[0].send_data(2)
        net.run(until=3.0)  # discovery + first packet through node 1
        net.radios[1].set_power(False)
        net.protocols[0].send_data(2)
        net.simulator.schedule(0.35, net.radios[1].set_power, True)
        net.run(until=10.0)
        assert net.metrics.delivered == 2


class TestPowerOffPurge:
    def test_purged_relay_is_not_withdrawn_again(self):
        # Node 1 wins the election for the second packet, hands its relay to
        # the MAC and powers off before it reaches the air.  Back on, it
        # hears the source's retransmission (a duplicate), retransmits as
        # arbiter, and the target's ack closes its election.
        obs = Observability()
        net = line_network("routeless", n=3, obs=obs)
        net.protocols[0].send_data(2)
        net.run(until=3.0)
        packet = net.protocols[0].send_data(2)
        relay = net.protocols[1]
        relays = relay.relays
        while relay.relays == relays:
            net.simulator.step()
        assert relay.mac.busy
        net.radios[1].set_power(False)
        while relay.mac.busy:
            net.simulator.step()
        net.radios[1].set_power(True)
        net.run(until=8.0)

        assert net.metrics.delivered == 2
        assert [(p.relays, p.acks_sent, p.arbiter_retransmits, p.gave_up)
                for p in net.protocols] == [(0, 3, 1, 0), (4, 0, 1, 0),
                                            (0, 3, 0, 0)]
        rows = [(e.layer, e.stage, e.reason) for e in obs.ledger.chain(packet.uid)
                if e.node == 1 and e.layer in ("net", "mac")]
        assert rows == [
            ("net", PacketStage.FORWARD, None),
            ("mac", PacketStage.ENQUEUE, None),
            ("mac", PacketStage.CONTEND, None),
            ("mac", PacketStage.DROP, DropReason.RADIO_OFF),
            ("mac", PacketStage.ENQUEUE, None),
            ("mac", PacketStage.CONTEND, None),
        ]


class TestExpectedHopCeiling:
    def test_unknown_relay_does_not_inflate_expectation(self):
        # A node with no table entry for the target forwards with the chain's
        # expectation minus one, never more.
        obs = Observability()
        net = line_network("routeless", n=5, obs=obs)
        net.protocols[0].send_data(4)
        net.run(until=5.0)
        for uid in (packet_uid(PacketKind.DATA, 0, 0),
                    packet_uid(PacketKind.PATH_REPLY, 4, 0)):
            # One relay per hop on the clean line: the n-th FORWARD row is
            # the copy that has travelled n hops.
            forwards = [e for e in obs.ledger.chain(uid)
                        if e.stage is PacketStage.FORWARD]
            assert len(forwards) == 3
            for hops, entry in enumerate(forwards, start=1):
                # never worse than the true diameter
                assert hops + entry.detail["expected_hops"] <= 5
