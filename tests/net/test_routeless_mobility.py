"""Routeless Routing under motion: relays that walk away are replaced
mid-conversation, with no discovery re-flood."""

import numpy as np
import pytest

from repro.experiments.common import ScenarioConfig, build_protocol_network
from repro.topology.arena import Arena
from repro.topology.mobility import MobilityConfig, RandomWaypoint


class TestMovingRelays:
    def test_flow_survives_relay_churn(self):
        # Endpoints pinned at opposite corners; 40 relays wander at bus
        # speed between them.  The flow must keep delivering even though no
        # specific relay stays put.
        rng = np.random.default_rng(6)
        positions = rng.uniform(0, 800, size=(60, 2))
        positions[0] = [30.0, 30.0]
        positions[1] = [770.0, 770.0]
        scenario = ScenarioConfig(n_nodes=60, positions=positions,
                                  range_m=250.0, seed=6)
        net = build_protocol_network("routeless", scenario)
        RandomWaypoint(net.ctx, net.channel, arena=Arena(800.0, 800.0),
                       config=MobilityConfig(min_speed_mps=3.0,
                                             max_speed_mps=10.0),
                       frozen={0, 1})
        sent = 0
        for k in range(25):
            net.protocols[0].send_data(1)
            sent += 1
            net.run(until=net.simulator.now + 1.0)
        net.run(until=net.simulator.now + 3.0)

        summary = net.summary()
        # ~6-hop corner-to-corner routes under constant relay churn: some
        # per-hop elections fail against freshly-stale tables.  The paper
        # assigns recovery to "some upper layer protocol ... invoked
        # repeatedly"; without that layer, two-thirds delivery on the worst-
        # case flow is the protocol working as specified.
        assert summary.delivered >= 0.66 * sent, summary
        # The paths used must actually differ over time — the relays moved.
        paths = {d.path for d in net.metrics.deliveries}
        assert len(paths) >= 3

    def test_tables_track_shrinking_distance(self):
        # One relay walks from far away toward the source; once adjacent,
        # the source's table entry for it (learned passively from its
        # transmissions) must reflect the 1-hop distance.
        positions = np.array([
            [0.0, 0.0],      # 0: static observer (source)
            [200.0, 0.0],    # 1: static relay
            [400.0, 0.0],    # 2: the walker, initially 2 hops away
        ])
        scenario = ScenarioConfig(n_nodes=3, positions=positions,
                                  range_m=250.0, seed=1)
        net = build_protocol_network("routeless", scenario)
        net.protocols[2].send_data(0)
        net.run(until=2.0)
        assert net.protocols[0].table.hops_to(2) == 2

        # Teleport node 2 next to node 0 (a worst-case topology change) and
        # let it transmit again: the stale entry must be replaced once it
        # ages out.
        moved = positions.copy()
        moved[2] = [50.0, 0.0]
        net.channel.set_positions(moved)
        net.run(until=12.0)  # exceed table_stale_after
        net.protocols[2].send_data(0)
        net.run(until=net.simulator.now + 2.0)
        assert net.protocols[0].table.hops_to(2) == 1
        assert net.metrics.delivered == 2
