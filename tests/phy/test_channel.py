"""Tests for the shared-medium channel."""

import numpy as np
import pytest

from repro.mac.frame import Frame
from repro.phy.channel import Channel
from repro.phy.propagation import FreeSpace, RayleighFading, range_to_threshold_dbm
from repro.phy.radio import RadioConfig, Transceiver
from tests.conftest import line_positions, make_phy_stack


def frame(src=0, seq=0):
    return Frame(src=src, dst=None, seq=seq, payload=None, size_bytes=64)


class TestLinkBudget:
    def test_distance_matrix_symmetric(self, ctx):
        channel, _, _ = make_phy_stack(ctx, line_positions(4))
        for i in range(4):
            for j in range(4):
                assert channel.pair_distance_m(i, j) == \
                    channel.pair_distance_m(j, i)

    def test_positions_shape_validated(self, ctx):
        with pytest.raises(ValueError):
            Channel(ctx, np.zeros((3, 4)), FreeSpace(), 15.0, -70.0)
        with pytest.raises(ValueError):
            Channel(ctx, np.zeros(6), FreeSpace(), 15.0, -70.0)

    def test_positions_3d_accepted(self, ctx):
        channel = Channel(ctx, np.zeros((3, 3)), FreeSpace(), 15.0, -70.0)
        assert channel.dim == 3

    def test_reach_excludes_self(self, ctx):
        channel, _, _ = make_phy_stack(ctx, line_positions(3, spacing=100.0))
        for i in range(3):
            assert i not in channel.reach[i]

    def test_reach_respects_threshold(self, ctx):
        # 200 m spacing, 250 m rx range, ~354 m CS reach: node 0 senses
        # nodes 1 (200 m) but not node 3 (600 m).
        channel, _, _ = make_phy_stack(ctx, line_positions(4, spacing=200.0))
        assert 1 in channel.reach[0]
        assert 3 not in channel.reach[0]

    def test_neighbors_with_explicit_threshold(self, ctx):
        channel, radios, config = make_phy_stack(ctx, line_positions(3, spacing=200.0))
        decodable = channel.neighbors(0, config.rx_threshold_dbm)
        assert list(decodable) == [1]  # 400 m is out of decode range


class TestTransmission:
    def test_tx_count_increments(self, ctx):
        channel, radios, _ = make_phy_stack(ctx, line_positions(2, spacing=100.0))
        radios[0].transmit(frame(), duration=0.001)
        ctx.simulator.run()
        assert channel.tx_count == 1
        assert channel.tx_count_by_kind["raw"] == 1

    def test_all_reachable_nodes_get_the_frame(self, ctx):
        channel, radios, _ = make_phy_stack(ctx, line_positions(4, spacing=100.0))
        got = []
        for r in radios[1:]:
            r.to_mac.connect(lambda f, i, rid=r.node_id: got.append(rid))
        radios[0].transmit(frame(), duration=0.001)
        ctx.simulator.run()
        assert sorted(got) == [1, 2]  # node 3 at 300 m > 250 m range

    def test_propagation_delay_orders_receptions(self, ctx):
        channel, radios, _ = make_phy_stack(ctx, line_positions(3, spacing=100.0))
        arrival = {}
        radios[1].to_mac.connect(lambda f, i: arrival.__setitem__(1, ctx.now))
        radios[2].to_mac.connect(lambda f, i: arrival.__setitem__(2, ctx.now))
        radios[0].transmit(frame(), duration=0.001)
        ctx.simulator.run()
        assert arrival[1] < arrival[2]

    def test_duplicate_registration_rejected(self, ctx):
        channel, radios, config = make_phy_stack(ctx, line_positions(2))
        with pytest.raises(ValueError):
            Transceiver(ctx, 0, channel, config)

    def test_out_of_range_node_id_rejected(self, ctx):
        channel, radios, config = make_phy_stack(ctx, line_positions(2))
        with pytest.raises(ValueError):
            Transceiver(ctx, 99, channel, config)


class TestFading:
    def _fading_channel(self, ctx, spacing):
        model = RayleighFading()
        tx_power = 15.0
        rx_thr = range_to_threshold_dbm(model, tx_power, 250.0)
        config = RadioConfig(tx_power_dbm=tx_power, rx_threshold_dbm=rx_thr)
        channel = Channel(ctx, line_positions(2, spacing=spacing), model,
                          tx_power, reach_threshold_dbm=config.cs_threshold_dbm)
        radios = [Transceiver(ctx, i, channel, config) for i in range(2)]
        return channel, radios

    def test_fading_makes_marginal_links_lossy(self, ctx):
        channel, radios = self._fading_channel(ctx, spacing=240.0)
        got = []
        radios[1].to_mac.connect(lambda f, i: got.append(f))
        for k in range(200):
            ctx.simulator.schedule(k * 0.01, radios[0].transmit, frame(seq=k), 0.001)
        ctx.simulator.run()
        # Rayleigh at ~the edge of range: some but not all frames survive.
        assert 0 < len(got) < 200

    def test_fading_reach_includes_headroom(self, ctx):
        # Nodes slightly beyond the deterministic reach can still be reached
        # through a constructive fade, so they must be in the reach list.
        channel, radios = self._fading_channel(ctx, spacing=400.0)
        assert 1 in channel.reach[0]
