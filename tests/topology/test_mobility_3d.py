"""3-D mobility: GaussMarkov3D determinism and invariants, virtual-force
topology control, the model registry, and the Arena deprecation shims."""

import numpy as np
import pytest

from repro.phy.channel import Channel
from repro.phy.propagation import FreeSpace, range_to_threshold_dbm
from repro.sim.components import SimContext
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.topology.arena import Arena
from repro.topology.mobility import (
    GaussMarkov3D,
    GaussMarkovConfig,
    MobilityConfig,
    RandomWalk,
    RandomWaypoint,
    mobility_model,
    mobility_model_names,
    register_mobility_model,
)
from repro.topology.vforce import VirtualForceConfig, VirtualForceControl

ARENA_3D = Arena(600.0, 600.0, depth_m=150.0)


def make_stack(arena, seed=7, n=30):
    ctx = SimContext(Simulator(), RandomStreams(seed))
    positions = arena.sample(np.random.default_rng(seed), n)
    model = FreeSpace()
    threshold = range_to_threshold_dbm(model, 15.0, 250.0)
    channel = Channel(ctx, positions, model, 15.0, threshold)
    return ctx, channel


class TestGaussMarkov3D:
    def test_requires_3d_arena(self):
        ctx, channel = make_stack(Arena(500.0, 500.0))
        with pytest.raises(ValueError, match="3-D arena"):
            GaussMarkov3D(ctx, channel, arena=Arena(500.0, 500.0))

    def test_seeded_replay_is_deterministic(self):
        trajectories = []
        for _ in range(2):
            ctx, channel = make_stack(ARENA_3D)
            model = GaussMarkov3D(ctx, channel, arena=ARENA_3D)
            ctx.simulator.run(until=5.0)
            trajectories.append((model.positions.copy(),
                                 channel.positions.copy()))
        assert np.array_equal(trajectories[0][0], trajectories[1][0])
        assert np.array_equal(trajectories[0][1], trajectories[1][1])

    def test_nodes_actually_move_and_stay_inside(self):
        ctx, channel = make_stack(ARENA_3D)
        start = channel.positions.copy()
        GaussMarkov3D(ctx, channel, arena=ARENA_3D)
        ctx.simulator.run(until=10.0)
        assert not np.array_equal(channel.positions, start)
        assert ARENA_3D.contains(channel.positions).all()

    def test_altitude_clamp_invariant(self):
        """Every tick leaves every altitude inside the configured band."""
        ctx, channel = make_stack(ARENA_3D, seed=3)
        cfg = GaussMarkovConfig(min_altitude_m=40.0, max_altitude_m=110.0,
                                mean_speed_mps=25.0, pitch_sigma_rad=0.5)
        model = GaussMarkov3D(ctx, channel, arena=ARENA_3D, config=cfg)

        violations = []
        original = model._tick

        def checked_tick():
            original()
            z = model.positions[model.mobile, 2]
            if ((z < 40.0) | (z > 110.0)).any():
                violations.append(z.copy())

        model._tick = checked_tick
        ctx.simulator.run(until=20.0)
        assert model.ticks > 50
        assert not violations

    def test_bad_altitude_band_rejected(self):
        ctx, channel = make_stack(ARENA_3D)
        cfg = GaussMarkovConfig(min_altitude_m=100.0, max_altitude_m=50.0)
        with pytest.raises(ValueError, match="altitude band"):
            GaussMarkov3D(ctx, channel, arena=ARENA_3D, config=cfg)

    def test_per_node_alpha(self):
        ctx, channel = make_stack(ARENA_3D, n=4)
        alphas = np.array([0.0, 0.3, 0.6, 0.9])
        model = GaussMarkov3D(ctx, channel, arena=ARENA_3D, alpha=alphas)
        assert np.array_equal(model.alpha, alphas)
        ctx.simulator.run(until=2.0)
        assert ARENA_3D.contains(model.positions).all()

    def test_per_node_alpha_validated(self):
        ctx, channel = make_stack(ARENA_3D, n=3)
        with pytest.raises(ValueError, match="alpha"):
            GaussMarkov3D(ctx, channel, arena=ARENA_3D,
                          alpha=np.array([0.5, 1.5, 0.2]))

    def test_frozen_nodes_stay_put(self):
        ctx, channel = make_stack(ARENA_3D)
        start = channel.positions.copy()
        GaussMarkov3D(ctx, channel, arena=ARENA_3D, frozen={0, 5})
        ctx.simulator.run(until=5.0)
        assert np.array_equal(channel.positions[0], start[0])
        assert np.array_equal(channel.positions[5], start[5])

    def test_alpha_one_is_ballistic_between_walls(self):
        """α = 1 keeps the initial velocity exactly (no noise injected)."""
        ctx, channel = make_stack(ARENA_3D, n=5)
        model = GaussMarkov3D(ctx, channel, arena=ARENA_3D, alpha=1.0)
        s0, h0 = model.speed.copy(), model.heading.copy()
        ctx.simulator.run(until=1.0)
        assert np.array_equal(model.speed, s0)
        # Headings only change where a wall reflected them.
        unchanged = model.heading == h0
        assert unchanged.any()

    def test_depth_zero_arena_flies_level(self):
        arena = Arena(600.0, 600.0, depth_m=0.0)
        ctx, channel = make_stack(arena)
        GaussMarkov3D(ctx, channel, arena=arena)
        ctx.simulator.run(until=3.0)
        assert (channel.positions[:, 2] == 0.0).all()


class TestDimensionAgnosticClassics:
    @pytest.mark.parametrize("model_cls", [RandomWaypoint, RandomWalk])
    def test_2d_models_run_in_3d(self, model_cls):
        ctx, channel = make_stack(ARENA_3D)
        start = channel.positions.copy()
        model_cls(ctx, channel, arena=ARENA_3D,
                  config=MobilityConfig(min_speed_mps=5.0, max_speed_mps=10.0))
        ctx.simulator.run(until=5.0)
        assert not np.array_equal(channel.positions, start)
        assert ARENA_3D.contains(channel.positions).all()

    def test_arena_channel_dim_mismatch_rejected(self):
        ctx, channel = make_stack(Arena(500.0, 500.0))
        with pytest.raises(ValueError, match="2-D"):
            RandomWaypoint(ctx, channel, arena=ARENA_3D)


class TestVirtualForce:
    def test_clumped_nodes_spread_apart(self):
        arena = Arena(600.0, 600.0)
        ctx = SimContext(Simulator(), RandomStreams(1))
        # A tight clump well under the target spacing.
        rng = np.random.default_rng(1)
        positions = 300.0 + rng.uniform(-10.0, 10.0, size=(12, 2))
        model = FreeSpace()
        threshold = range_to_threshold_dbm(model, 15.0, 250.0)
        channel = Channel(ctx, positions, model, 15.0, threshold)
        control = VirtualForceControl(
            ctx, channel, arena=arena,
            config=VirtualForceConfig(comm_range_m=250.0, max_step_m=10.0))

        def spread(pos):
            return np.linalg.norm(pos - pos.mean(axis=0), axis=1).mean()

        before = spread(channel.positions)
        ctx.simulator.run(until=20.0)
        assert control.ticks > 10
        assert spread(channel.positions) > 2 * before
        assert arena.contains(channel.positions).all()

    def test_frozen_nodes_anchor(self):
        arena = Arena(600.0, 600.0)
        ctx = SimContext(Simulator(), RandomStreams(2))
        positions = np.array([[300.0, 300.0], [301.0, 300.0], [300.0, 301.0]])
        model = FreeSpace()
        threshold = range_to_threshold_dbm(model, 15.0, 250.0)
        channel = Channel(ctx, positions, model, 15.0, threshold)
        VirtualForceControl(ctx, channel, arena=arena, frozen={0})
        ctx.simulator.run(until=5.0)
        assert np.array_equal(channel.positions[0], [300.0, 300.0])

    def test_target_degree_tracks(self):
        arena = Arena(900.0, 900.0, depth_m=100.0)
        ctx = SimContext(Simulator(), RandomStreams(3))
        positions = arena.sample(np.random.default_rng(3), 30)
        model = FreeSpace()
        threshold = range_to_threshold_dbm(model, 15.0, 250.0)
        channel = Channel(ctx, positions, model, 15.0, threshold)
        control = VirtualForceControl(
            ctx, channel, arena=arena,
            config=VirtualForceConfig(comm_range_m=250.0, target_degree=6))
        ctx.simulator.run(until=30.0)
        assert control.mean_degree > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VirtualForceConfig(comm_range_m=-1.0)
        with pytest.raises(ValueError):
            VirtualForceConfig(max_step_m=0.0)


class TestRegistry:
    def test_builtins_registered(self):
        names = mobility_model_names()
        assert {"rwp", "rwalk", "gauss_markov_3d"} <= set(names)
        assert mobility_model("rwp") is RandomWaypoint
        assert mobility_model("rwalk") is RandomWalk
        assert mobility_model("gauss_markov_3d") is GaussMarkov3D

    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="rwp"):
            mobility_model("teleport")

    def test_reregistration_conflict(self):
        with pytest.raises(ValueError, match="already registered"):
            register_mobility_model("rwp", RandomWalk)
        # Re-registering the same class is idempotent, not an error.
        register_mobility_model("rwp", RandomWaypoint)


class TestDeprecationShims:
    """The geometry arguments left once the deprecated width/height
    spellings were removed."""

    def test_arena_via_config(self):
        ctx, channel = make_stack(Arena(500.0, 500.0))
        model = RandomWalk(ctx, channel,
                           config=MobilityConfig(arena=Arena(500.0, 500.0)))
        assert model.arena == Arena(500.0, 500.0)

    def test_arena_twice_rejected(self):
        ctx, channel = make_stack(Arena(500.0, 500.0))
        with pytest.raises(TypeError, match="multiple values.*'arena'"):
            RandomWaypoint(ctx, channel, Arena(500.0, 500.0),
                           arena=Arena(500.0, 500.0))

    def test_missing_arena_rejected(self):
        ctx, channel = make_stack(Arena(500.0, 500.0))
        with pytest.raises(TypeError, match="arena"):
            RandomWaypoint(ctx, channel)
        # The removed width/height spellings fail loudly.
        with pytest.raises(TypeError, match="arena"):
            RandomWaypoint(ctx, channel, 500.0)
        with pytest.raises(TypeError):
            RandomWaypoint(ctx, channel, 500.0, 500.0)
        with pytest.raises(TypeError):
            RandomWalk(ctx, channel, width_m=500.0, height_m=500.0)
