"""Tests for the mobility models."""

import numpy as np
import pytest

from repro.topology.arena import Arena
from repro.topology.mobility import MobilityConfig, RandomWalk, RandomWaypoint
from tests.conftest import line_positions, make_phy_stack
from tests.phy.link_budget_reference import assert_matches_reference


def build(ctx, model_cls, n=10, config=None, frozen=(), width=500.0, height=500.0):
    rng = np.random.default_rng(3)
    positions = rng.uniform(0, 500, size=(n, 2))
    channel, radios, _ = make_phy_stack(ctx, positions)
    model = model_cls(ctx, channel, arena=Arena(width, height),
                      config=config if config is not None else MobilityConfig(),
                      frozen=frozen)
    return channel, model


class TestConfig:
    def test_invalid_speeds(self):
        with pytest.raises(ValueError):
            MobilityConfig(min_speed_mps=0.0)
        with pytest.raises(ValueError):
            MobilityConfig(min_speed_mps=5.0, max_speed_mps=1.0)

    def test_invalid_tick(self):
        with pytest.raises(ValueError):
            MobilityConfig(tick_s=0.0)

    def test_invalid_pause(self):
        with pytest.raises(ValueError):
            MobilityConfig(min_pause_s=2.0, max_pause_s=1.0)


@pytest.mark.parametrize("model_cls", [RandomWaypoint, RandomWalk])
class TestCommonBehaviour:
    def test_nodes_actually_move(self, ctx, model_cls):
        channel, model = build(ctx, model_cls)
        start = channel.positions.copy()
        ctx.simulator.run(until=10.0)
        assert not np.allclose(channel.positions, start)
        assert model.ticks > 0

    def test_positions_stay_in_bounds(self, ctx, model_cls):
        channel, model = build(ctx, model_cls)
        for _ in range(50):
            ctx.simulator.run(until=ctx.simulator.now + 1.0)
            assert (model.positions[:, 0] >= -1e-9).all()
            assert (model.positions[:, 0] <= 500.0 + 1e-9).all()
            assert (model.positions[:, 1] >= -1e-9).all()
            assert (model.positions[:, 1] <= 500.0 + 1e-9).all()

    def test_speed_bounded(self, ctx, model_cls):
        config = MobilityConfig(min_speed_mps=2.0, max_speed_mps=8.0,
                                tick_s=0.5)
        channel, model = build(ctx, model_cls, config=config)
        ctx.simulator.run(until=20.0)
        # Total distance cannot exceed max speed × elapsed time.
        assert (model.distance_moved_m <= 8.0 * 20.0 + 1e-6).all()

    def test_frozen_nodes_stay_put(self, ctx, model_cls):
        channel, model = build(ctx, model_cls, frozen={0, 3})
        start = channel.positions.copy()
        ctx.simulator.run(until=10.0)
        assert np.allclose(model.positions[0], start[0])
        assert np.allclose(model.positions[3], start[3])
        assert not np.allclose(model.positions[1], start[1])

    def test_channel_link_budget_tracks_movement(self, ctx, model_cls):
        channel, model = build(ctx, model_cls)
        before = [list(row) for row in channel._reach_powers]
        ctx.simulator.run(until=10.0)
        assert [list(row) for row in channel._reach_powers] != before
        assert_matches_reference(channel)

    def test_deterministic(self, model_cls):
        from repro.sim.components import SimContext
        from repro.sim.engine import Simulator
        from repro.sim.rng import RandomStreams

        finals = []
        for _ in range(2):
            ctx = SimContext(Simulator(), RandomStreams(5))
            channel, model = build(ctx, model_cls)
            ctx.simulator.run(until=5.0)
            finals.append(model.positions.copy())
        assert np.array_equal(finals[0], finals[1])


class TestRandomWaypointSpecifics:
    def test_pausing_happens(self, ctx):
        config = MobilityConfig(min_speed_mps=40.0, max_speed_mps=50.0,
                                min_pause_s=5.0, max_pause_s=10.0, tick_s=0.25)
        channel, model = build(ctx, RandomWaypoint, config=config)
        ctx.simulator.run(until=30.0)
        # With fast travel and long pauses, somebody must be paused now.
        assert (model.pause_until > ctx.simulator.now).any()


class TestChannelReconfiguration:
    def test_set_positions_rejects_wrong_shape(self, ctx):
        channel, _, _ = make_phy_stack(ctx, line_positions(3))
        with pytest.raises(ValueError):
            channel.set_positions(np.zeros((2, 2)))

    def test_reach_changes_when_node_walks_away(self, ctx):
        channel, radios, _ = make_phy_stack(ctx, line_positions(2, spacing=100.0))
        assert 1 in channel.reach[0]
        moved = np.array([[0.0, 0.0], [5000.0, 0.0]])
        channel.set_positions(moved)
        assert 1 not in channel.reach[0]


class TestSparseChannelWiring:
    """Mobility ticks drive the sparse channel via incremental move_nodes."""

    def _drive(self):
        from repro.phy.channel import Channel
        from repro.phy.propagation import FreeSpace, range_to_threshold_dbm
        from repro.sim.components import SimContext
        from repro.sim.engine import Simulator
        from repro.sim.rng import RandomStreams

        ctx = SimContext(Simulator(), RandomStreams(5))
        positions = np.random.default_rng(3).uniform(0, 500, size=(12, 2))
        model = FreeSpace()
        threshold = range_to_threshold_dbm(model, 15.0, 250.0)
        channel = Channel(ctx, positions, model, 15.0, threshold)
        RandomWaypoint(ctx, channel, arena=Arena(500.0, 500.0),
                       config=MobilityConfig(), frozen={0, 3})
        return ctx, channel

    def test_sparse_ticks_match_dense_rebuilds(self):
        ctx, channel = self._drive()
        ctx.simulator.run(until=10.0)
        assert_matches_reference(channel)

    def test_tick_only_passes_moved_ids(self):
        ctx, channel = self._drive()
        calls = []
        original = channel.move_nodes
        channel.move_nodes = lambda ids, pos: (
            calls.append(np.asarray(ids).copy()), original(ids, pos))[1]
        ctx.simulator.run(until=2.0)
        assert calls  # the model ticked and nodes moved
        for ids in calls:
            assert 0 not in ids and 3 not in ids  # frozen nodes never passed
