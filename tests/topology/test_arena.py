"""Arena value object: geometry, sampling bit-identity, and the placement
deprecation shims (tentpole of the dimension-agnostic geometry PR)."""

import numpy as np
import pytest

from repro.topology.arena import Arena, as_arena
from repro.topology.placement import connected_uniform, grid, uniform_random


class TestArenaBasics:
    def test_2d_dim_and_extents(self):
        arena = Arena(1000.0, 800.0)
        assert arena.dim == 2
        assert arena.extents == (1000.0, 800.0)
        assert arena.volume == 1000.0 * 800.0

    def test_3d_dim_and_extents(self):
        arena = Arena(900.0, 900.0, depth_m=200.0)
        assert arena.dim == 3
        assert arena.extents == (900.0, 900.0, 200.0)
        assert arena.volume == 900.0 * 900.0 * 200.0

    def test_flat_drops_altitude(self):
        assert Arena(900.0, 700.0, depth_m=200.0).flat() == Arena(900.0, 700.0)

    def test_depth_zero_is_3d(self):
        assert Arena(500.0, 500.0, depth_m=0.0).dim == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            Arena(0.0, 100.0)
        with pytest.raises(ValueError):
            Arena(100.0, -1.0)
        with pytest.raises(ValueError):
            Arena(100.0, 100.0, depth_m=-5.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            Arena(100.0, 100.0).width_m = 50.0


class TestSample:
    def test_2d_sample_matches_legacy_draw_order(self):
        """Bit-identity contract: one uniform vector per axis, in axis
        order — exactly the legacy xs-then-ys sequence."""
        sampled = Arena(775.0, 775.0).sample(np.random.default_rng(9), 60)
        rng = np.random.default_rng(9)
        xs = rng.uniform(0.0, 775.0, size=60)
        ys = rng.uniform(0.0, 775.0, size=60)
        assert np.array_equal(sampled, np.column_stack([xs, ys]))

    def test_3d_sample_shape_and_bounds(self):
        arena = Arena(900.0, 900.0, depth_m=200.0)
        positions = arena.sample(np.random.default_rng(0), 500)
        assert positions.shape == (500, 3)
        assert arena.contains(positions).all()

    def test_depth_zero_sample_pins_altitude(self):
        positions = Arena(500.0, 500.0, depth_m=0.0).sample(
            np.random.default_rng(1), 40)
        assert positions.shape == (40, 3)
        assert (positions[:, 2] == 0.0).all()

    def test_depth_zero_xy_matches_2d_exactly(self):
        """A degenerate 3-D arena draws the same x/y columns as the 2-D
        arena on the same seed (z is one extra draw after them)."""
        flat = Arena(600.0, 600.0).sample(np.random.default_rng(4), 30)
        deg = Arena(600.0, 600.0, depth_m=0.0).sample(
            np.random.default_rng(4), 30)
        assert np.array_equal(deg[:, :2], flat)


class TestContainsClamp:
    def test_contains(self):
        arena = Arena(100.0, 100.0, depth_m=50.0)
        positions = np.array([[50.0, 50.0, 25.0],
                              [150.0, 50.0, 25.0],
                              [50.0, 50.0, 60.0],
                              [0.0, 100.0, 0.0]])
        assert arena.contains(positions).tolist() == [True, False, False, True]

    def test_clamp(self):
        arena = Arena(100.0, 100.0)
        clamped = arena.clamp(np.array([[-5.0, 50.0], [50.0, 120.0]]))
        assert np.array_equal(clamped, [[0.0, 50.0], [50.0, 100.0]])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"\(N, 2\)"):
            Arena(100.0, 100.0).contains(np.zeros((3, 3)))


class TestAsArena:
    def test_passthrough_and_tuples(self):
        arena = Arena(10.0, 20.0)
        assert as_arena(arena) is arena
        assert as_arena((10.0, 20.0)) == arena
        assert as_arena((10.0, 20.0, 5.0)) == Arena(10.0, 20.0, 5.0)

    def test_keywords(self):
        assert as_arena(None, width_m=10, height_m=20) == Arena(10.0, 20.0)
        with pytest.raises(TypeError):
            as_arena(None, width_m=10)


class TestPlacementShims:
    """Placement takes an Arena, in 2-D and 3-D alike."""

    def test_uniform_random_positional_rng_after_arena(self):
        arena = Arena(500.0, 500.0)
        a = uniform_random(20, arena, np.random.default_rng(8))
        b = uniform_random(20, arena, rng=np.random.default_rng(8))
        assert np.array_equal(a, b)

    def test_connected_uniform_3d(self):
        arena = Arena(600.0, 600.0, depth_m=150.0)
        positions = connected_uniform(40, arena, range_m=250.0,
                                      rng=np.random.default_rng(2))
        assert positions.shape == (40, 3)
        assert arena.contains(positions).all()

    def test_grid_3d_origin_stacks_levels(self):
        points = grid(2, 2, 10.0, origin=(0.0, 0.0, 100.0), levels=3)
        assert points.shape == (12, 3)
        assert set(points[:, 2]) == {100.0, 110.0, 120.0}

    def test_grid_levels_require_3d_origin(self):
        with pytest.raises(ValueError, match="3-D origin"):
            grid(2, 2, 10.0, levels=2)
