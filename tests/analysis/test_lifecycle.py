"""A packet's lifecycle, read back from the packet ledger.

``obs.ledger.chain(uid)`` is one packet's journey: its net-layer FORWARD
rows name the relays that won each hop's election, in hop order.
"""

import pytest

from repro.net.packet import PacketKind, packet_uid
from repro.net.routeless import RoutelessConfig
from repro.obs.ledger import DropReason, PacketStage
from repro.obs.observe import Observability
from tests.conftest import line_network

DATA = packet_uid(PacketKind.DATA, 0, 0)
REPLY = packet_uid(PacketKind.PATH_REPLY, 4, 0)


def relays(chain):
    return [e.node for e in chain if e.stage is PacketStage.FORWARD]


@pytest.fixture
def observed_run():
    obs = Observability()
    net = line_network("routeless", n=5, obs=obs)
    net.protocols[0].send_data(4)
    net.run(until=5.0)
    return obs, net


class TestReconstruction:
    def test_data_journey_reconstructed(self, observed_run):
        obs, net = observed_run
        chain = obs.ledger.chain(DATA)
        assert [e.node for e in chain if e.stage is PacketStage.DELIVER] == [4]
        assert relays(chain) == [1, 2, 3]
        assert net.protocols[0].arbiter_retransmits == 0
        assert [e.node for e in chain if e.stage is PacketStage.TX] == [0, 1, 2, 3]

    def test_discovery_and_reply_present(self, observed_run):
        obs, net = observed_run
        assert obs.ledger.chain(packet_uid(PacketKind.PATH_DISCOVERY, 0, 0))
        assert relays(obs.ledger.chain(REPLY)) == [3, 2, 1]
        # The reply reached the source: the path is known, discovery over.
        assert net.protocols[0].table.knows(4)
        assert 4 not in net.protocols[0].discovery

    def test_events_time_ordered(self, observed_run):
        obs, net = observed_run
        for uid in obs.ledger.uids():
            times = [e.time for e in obs.ledger.chain(uid)]
            assert times == sorted(times)

    def test_candidates_recorded(self, observed_run):
        obs, net = observed_run
        chain = obs.ledger.chain(DATA)
        win = next(e for e in chain
                   if e.stage is PacketStage.FORWARD and e.node == 1)
        assert win.detail["backoff_s"] > 0  # node 1 competed for hop one
        # ... on the copy it heard from node 0, the only sender so far.
        assert [e.node for e in chain
                if e.stage is PacketStage.TX and e.time < win.time] == [0]
        assert any(e.stage is PacketStage.RX and e.node == 1
                   and e.time <= win.time for e in chain)

    def test_retransmissions_counted(self):
        obs = Observability()
        config = RoutelessConfig(arbiter_timeout_s=0.1, max_relay_retries=2)
        net = line_network("routeless", n=3, obs=obs, protocol_config=config)
        net.protocols[0].send_data(2)
        net.run(until=3.0)
        net.radios[1].set_power(False)   # relay dies; source will retry
        net.protocols[0].send_data(2)
        net.run(until=8.0)
        stuck = obs.ledger.chain(packet_uid(PacketKind.DATA, 0, 1))
        assert net.protocols[0].arbiter_retransmits >= 1
        assert [e.node for e in stuck if e.stage is PacketStage.TX] == [0, 0, 0]
        assert not any(e.stage is PacketStage.DELIVER for e in stuck)
        assert stuck[-1].reason is DropReason.NO_FORWARDER
