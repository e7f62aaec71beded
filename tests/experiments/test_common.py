"""Tests for scenario assembly and flow selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import (
    PROTOCOLS,
    ScenarioConfig,
    attach_cbr,
    build_network,
    build_protocol_network,
    pick_flows,
)
from repro.mac.csma import MacConfig
from repro.net.flooding import SSAF
from repro.sim.rng import RandomStreams


class TestBuildNetwork:
    def test_all_layers_present_and_wired(self):
        scenario = ScenarioConfig(n_nodes=10, width_m=500, height_m=500,
                                  range_m=250, seed=1)
        net = build_protocol_network("counter1", scenario)
        assert len(net.radios) == len(net.macs) == len(net.protocols) == 10
        assert net.channel.n_nodes == 10
        for i, protocol in enumerate(net.protocols):
            assert protocol.node_id == i
            assert protocol.mac is net.macs[i]
            assert net.macs[i].radio is net.radios[i]

    def test_placement_is_connected(self):
        from repro.topology.placement import is_connected
        scenario = ScenarioConfig(n_nodes=30, width_m=800, height_m=800,
                                  range_m=250, seed=5)
        net = build_protocol_network("counter1", scenario)
        assert is_connected(net.positions, 250.0)

    def test_explicit_positions_respected(self):
        positions = np.array([[0.0, 0.0], [10.0, 0.0]])
        scenario = ScenarioConfig(n_nodes=2, positions=positions, seed=1)
        net = build_protocol_network("counter1", scenario)
        assert np.array_equal(net.positions, positions)

    def test_same_seed_same_topology(self):
        scenario = ScenarioConfig(n_nodes=20, seed=9)
        a = build_protocol_network("counter1", scenario)
        b = build_protocol_network("routeless", scenario)
        assert np.array_equal(a.positions, b.positions)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            build_protocol_network("ospf", ScenarioConfig(n_nodes=5))

    def test_ssaf_gets_priority_queue_and_threshold(self):
        scenario = ScenarioConfig(n_nodes=5, width_m=300, height_m=300, seed=1)
        net = build_protocol_network("ssaf", scenario)
        assert net.macs[0].queue.prioritized
        assert isinstance(net.protocols[0], SSAF)
        policy = net.protocols[0].config.policy
        assert policy.rx_threshold_dbm == pytest.approx(net.rx_threshold_dbm)

    def test_other_protocols_get_fifo(self):
        net = build_protocol_network("routeless", ScenarioConfig(n_nodes=5, width_m=300, height_m=300, seed=1))
        assert not net.macs[0].queue.prioritized

    def test_every_registered_protocol_builds(self):
        for protocol in PROTOCOLS:
            net = build_protocol_network(protocol, ScenarioConfig(n_nodes=5, width_m=300, height_m=300, seed=1))
            assert len(net.protocols) == 5

    def test_energy_meters_optional(self):
        net = build_protocol_network(
            "counter1", ScenarioConfig(n_nodes=4, width_m=300, height_m=300, seed=1, with_energy=True))
        assert len(net.energy) == 4
        net2 = build_protocol_network("counter1", ScenarioConfig(n_nodes=4, width_m=300, height_m=300, seed=1))
        assert net2.energy == []


class TestPickFlows:
    @given(st.integers(min_value=10, max_value=100),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_distinct_endpoints(self, n_nodes, n_flows, seed):
        rng = np.random.default_rng(seed)
        flows = pick_flows(n_nodes, n_flows, rng, distinct_endpoints=True)
        endpoints = [node for flow in flows for node in flow]
        assert len(endpoints) == len(set(endpoints))
        assert all(0 <= node < n_nodes for node in endpoints)

    def test_bidirectional_mirrors(self):
        rng = np.random.default_rng(0)
        flows = pick_flows(20, 3, rng, bidirectional=True)
        assert len(flows) == 6
        forward, backward = flows[:3], flows[3:]
        assert backward == [(d, s) for s, d in forward]

    def test_no_self_flows(self):
        rng = np.random.default_rng(0)
        for src, dst in pick_flows(10, 4, rng):
            assert src != dst

    def test_impossible_request_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(RuntimeError):
            pick_flows(4, 10, rng, distinct_endpoints=True)


class TestAttachCbr:
    def test_one_source_per_flow(self):
        net = build_protocol_network("counter1", ScenarioConfig(n_nodes=10, seed=1))
        sources = attach_cbr(net, [(0, 5), (2, 7)], interval_s=1.0, stop_s=3.0)
        assert len(sources) == 2
        assert net.sources == sources
        net.run(until=5.0)
        assert all(s.generated >= 3 for s in sources)
