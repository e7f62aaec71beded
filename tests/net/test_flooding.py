"""Tests for the flooding family: blind, counter-1, SSAF."""

import numpy as np
import pytest

from repro.core.backoff import RandomBackoff
from repro.core.timer import CandidateState
from repro.net.flooding import FloodingConfig
from repro.experiments.common import ScenarioConfig, build_protocol_network
from repro.net.packet import PacketKind
from repro.obs.ledger import DropReason, PacketStage
from repro.obs.observe import Observability
from tests.conftest import line_network, line_positions


def run_flood(protocol, n=5, spacing=200.0, src=0, dst=None, until=5.0,
              protocol_config=None, seed=1):
    net = line_network(protocol, n=n, spacing=spacing, seed=seed,
                       protocol_config=protocol_config)
    dst = n - 1 if dst is None else dst
    net.protocols[src].send_data(dst)
    net.run(until=until)
    return net


def chaos_fig1_cell(protocol):
    """The chaos gate's fig1 cell (30 nodes under the mixed fault plan,
    CBR stopping at 6 s), run to its 8 s end with the network kept."""
    from repro.experiments.common import (
        ScenarioConfig, attach_cbr, build_protocol_network, pick_flows)
    from repro.faults import install_plan, mixed_chaos_plan
    from repro.sim.rng import RandomStreams

    scenario = ScenarioConfig(n_nodes=30, width_m=550.0, height_m=550.0,
                              range_m=250.0, seed=1)
    net = build_protocol_network(protocol, scenario)
    flows = pick_flows(30, 3, RandomStreams(1 + 7777).stream("fig1.flows"),
                       distinct_endpoints=False)
    install_plan(net, mixed_chaos_plan(30),
                 exempt={node for flow in flows for node in flow})
    attach_cbr(net, flows, interval_s=0.5, stop_s=6.0)
    net.run(until=8.0)
    return net


def drained_ssaf_run():
    """30-node SSAF, 3 CBR flows stopping at 4 s, run to 6 s."""
    from repro.experiments.common import (
        ScenarioConfig, attach_cbr, build_protocol_network, pick_flows)
    from repro.sim.rng import RandomStreams

    scenario = ScenarioConfig(n_nodes=30, width_m=600, height_m=600,
                              range_m=250, seed=1)
    net = build_protocol_network("ssaf", scenario)
    flows = pick_flows(30, 3, RandomStreams(1).stream("f"),
                       distinct_endpoints=False)
    attach_cbr(net, flows, interval_s=1.0, stop_s=4.0)
    net.run(until=6.0)
    return net


class TestCounter1:
    def test_delivers_along_line(self, ctx):
        net = run_flood("counter1")
        assert net.metrics.delivered == 1
        d = net.metrics.deliveries[0]
        assert d.hops == 4  # 0→1→2→3→4

    def test_each_node_rebroadcasts_at_most_once(self):
        net = run_flood("counter1")
        assert net.channel.tx_count_by_kind["data"] <= 5

    def test_destination_does_not_rebroadcast(self):
        # 3-node line: src 0, relay 1, dst 2 → exactly 2 data transmissions.
        net = run_flood("counter1", n=3)
        assert net.channel.tx_count_by_kind["data"] == 2

    def test_duplicate_suppression_on_dense_clique(self):
        # All nodes in range: source transmits, at most one rebroadcast
        # usually follows before everyone is suppressed.
        net = run_flood("counter1", n=8, spacing=20.0, dst=7)
        assert net.metrics.delivered == 1
        assert net.metrics.deliveries[0].hops == 1  # direct reception
        suppressed = sum(p.suppressed for p in net.protocols)
        rebroadcast = sum(p.rebroadcasts for p in net.protocols)
        assert suppressed + rebroadcast == 6  # everyone but src and dst chose

    def test_max_hops_bounds_propagation(self):
        config = FloodingConfig(policy=RandomBackoff(max_delay=0.02),
                                suppress_on_duplicate=True, max_hops=2)
        net = run_flood("counter1", n=6, protocol_config=config)
        assert net.metrics.delivered == 0  # needs 5 hops, only 2 allowed

    def test_sequence_numbers_distinguish_packets(self):
        net = line_network("counter1", n=3, spacing=200.0)
        net.protocols[0].send_data(2)
        net.protocols[0].send_data(2)
        net.run(until=5.0)
        assert net.metrics.delivered == 2


class TestBlindFlooding:
    def test_no_suppression_every_node_rebroadcasts(self):
        # On a clique of 8, blind flooding re-transmits at every node except
        # the destination, even though everyone already has the packet.
        blind = run_flood("blind", n=8, spacing=20.0, dst=7)
        counter1 = run_flood("counter1", n=8, spacing=20.0, dst=7)
        assert blind.channel.tx_count_by_kind["data"] == 7  # src + 6 relays
        assert blind.channel.tx_count_by_kind["data"] > \
            counter1.channel.tx_count_by_kind["data"]

    def test_still_delivers(self):
        net = run_flood("blind")
        assert net.metrics.delivered == 1


class TestSSAF:
    def test_delivers_along_line(self):
        net = run_flood("ssaf")
        assert net.metrics.delivered == 1

    def test_farthest_neighbor_forwards(self, ctx):
        # Node 0 sends; nodes 1 (100 m) and 2 (200 m) both hear it.  Node 2's
        # weaker signal gives it the shorter backoff, so node 2 relays and
        # node 1 is suppressed.  Node 3 (400 m) only hears node 2.
        positions = np.array([[0.0, 0.0], [100.0, 0.0], [200.0, 0.0], [400.0, 0.0]])
        from repro.experiments.common import ScenarioConfig, build_protocol_network
        net = build_protocol_network(
            "ssaf", ScenarioConfig(n_nodes=4, positions=positions, range_m=250.0, seed=1))
        net.protocols[0].send_data(3)
        net.run(until=5.0)
        assert net.metrics.delivered == 1
        path = net.metrics.deliveries[0].path
        assert path == (2,)  # node 2 was elected, node 1 never relayed

    def test_fewer_hops_than_counter1_on_random_topology(self):
        # The headline Figure 1 property at miniature scale, averaged over
        # seeds to damp the randomness.
        from repro.experiments.common import (
            ScenarioConfig, attach_cbr, build_protocol_network, pick_flows)
        from repro.sim.rng import RandomStreams

        hops = {}
        for protocol in ("counter1", "ssaf"):
            total, count = 0.0, 0
            for seed in (1, 2, 3):
                scenario = ScenarioConfig(n_nodes=40, width_m=700, height_m=700,
                                          range_m=250, seed=seed)
                net = build_protocol_network(protocol, scenario)
                flows = pick_flows(40, 5, RandomStreams(seed).stream("f"),
                                   distinct_endpoints=False)
                attach_cbr(net, flows, interval_s=1.0, stop_s=8.0)
                net.run(until=10.0)
                total += sum(d.hops for d in net.metrics.deliveries)
                count += len(net.metrics.deliveries)
            hops[protocol] = total / count
        assert hops["ssaf"] < hops["counter1"]


    def test_lost_elections_release_their_timers(self):
        # A node that hears the winner's copy drops its candidacy for good;
        # keeping the suppressed timer (and its closure) would grow memory
        # with every packet of a long run.
        net = drained_ssaf_run()
        assert sum(p.suppressed for p in net.protocols) > 0
        held = [timer.state for p in net.protocols
                for timer in p._timers.values()]
        assert CandidateState.SUPPRESSED not in held

class TestPowerOffPurge:
    """A radio that powers off purges its MAC queue without telling the
    network layer; nothing per packet may outlive that."""

    @pytest.mark.parametrize("protocol", ["counter1", "ssaf"])
    def test_drained_chaos_cell_keeps_only_dup_cache(self, protocol):
        # Crashes and duty-cycled outages purge queued relays here; once
        # the cell has drained, no node keeps a per-packet map.
        net = chaos_fig1_cell(protocol)
        assert sum(p.rebroadcasts for p in net.protocols) > 0
        assert not any(p.mac.busy for p in net.protocols)
        held = {(p.node_id, name): len(value) for p in net.protocols
                for name, value in vars(p).items()
                if isinstance(value, dict) and value}
        assert held == {}

    @pytest.mark.parametrize("protocol", ["counter1", "ssaf"])
    def test_purged_relay_is_not_withdrawn_again(self, protocol):
        # Nodes 1 and 2 both hear the source and each other; node 3, the
        # target, hears only them.  Node 2 wins, hands its relay to the MAC
        # and powers off before it reaches the air.  Back on, it hears node
        # 1's copy: a plain duplicate, not a second withdrawal.
        obs = Observability()
        positions = np.array([[0.0, 0.0], [150.0, 40.0], [150.0, -40.0],
                              [320.0, 0.0]])
        net = build_protocol_network(
            protocol, ScenarioConfig(n_nodes=4, positions=positions,
                                     range_m=250.0, seed=1), obs=obs)
        packet = net.protocols[0].send_data(3)
        relay = net.protocols[2]
        while not relay.rebroadcasts:
            net.simulator.step()
        assert relay.mac.busy and net.protocols[1].rebroadcasts == 0
        net.radios[2].set_power(False)
        while relay.mac.busy:
            net.simulator.step()
        net.radios[2].set_power(True)
        net.run(until=1.0)

        assert [(p.rebroadcasts, p.suppressed) for p in net.protocols] == \
            [(0, 0), (1, 0), (1, 0), (0, 0)]
        assert net.metrics.delivered == 1
        rows = [(e.layer, e.stage, e.reason) for e in obs.ledger.chain(packet.uid)
                if e.node == 2 and e.layer in ("net", "mac")]
        assert rows == [
            ("net", PacketStage.FORWARD, None),
            ("mac", PacketStage.ENQUEUE, None),
            ("mac", PacketStage.CONTEND, None),
            ("mac", PacketStage.DROP, DropReason.RADIO_OFF),
            ("net", PacketStage.DROP, DropReason.DUPLICATE),
        ]


class TestMetricsIntegration:
    def test_origination_and_delivery_recorded(self):
        net = run_flood("counter1", n=3)
        assert net.metrics.generated == 1
        assert net.metrics.delivered == 1
        assert net.metrics.delivery_ratio() == 1.0
        assert net.metrics.deliveries[0].delay > 0

    def test_unreachable_destination_counts_as_loss(self):
        net = line_network("counter1", n=3, spacing=2000.0)  # disconnected
        net.protocols[0].send_data(2)
        net.run(until=5.0)
        assert net.metrics.generated == 1
        assert net.metrics.delivered == 0
