"""3-D channel geometry: bit-equivalence with the dense reference over
(N, 3) positions, incremental moves, and the 2-D-degeneracy guarantee."""

import numpy as np
import pytest

from repro.phy.channel import Channel
from repro.phy.propagation import FreeSpace, range_to_threshold_dbm
from repro.sim.components import SimContext
from tests.phy.link_budget_reference import assert_matches_reference


def make_channel(positions):
    model = FreeSpace()
    threshold = range_to_threshold_dbm(model, 15.0, 250.0)
    return Channel(SimContext(), np.asarray(positions, dtype=float), model,
                   15.0, threshold)


def positions_3d(n, seed, extent=900.0, depth=200.0):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.uniform(0, extent, n),
                            rng.uniform(0, extent, n),
                            rng.uniform(0, depth, n)])


def assert_budgets_identical(a, b):
    assert a.n_nodes == b.n_nodes
    for node in range(a.n_nodes):
        assert np.array_equal(a.reach[node], b.reach[node])
        assert np.array_equal(a._reach_power_arrays[node],
                              b._reach_power_arrays[node])


@pytest.mark.parametrize("n", [64, 512])
def test_sparse_matches_dense_3d(n):
    channel = make_channel(positions_3d(n, seed=n))
    assert channel.dim == 3
    assert_matches_reference(channel)


def test_depth_zero_degenerate_matches_2d_exactly():
    """(N, 3) positions with z == 0 produce link budgets float-equal to the
    same (N, 2) positions: dz² == 0.0 adds nothing, bitwise."""
    rng = np.random.default_rng(11)
    flat = rng.uniform(0, 700.0, size=(100, 2))
    stacked = np.hstack([flat, np.zeros((100, 1))])
    ch2 = make_channel(flat)
    ch3 = make_channel(stacked)
    assert_budgets_identical(ch2, ch3)
    assert_matches_reference(ch3)


def test_move_nodes_3d_matches_rebuild():
    positions = positions_3d(128, seed=5)
    channel = make_channel(positions)
    moved = np.array([3, 17, 60, 127])
    positions = positions.copy()
    positions[moved] += np.array([40.0, -25.0, 30.0])
    positions[moved, 2] = np.clip(positions[moved, 2], 0.0, 200.0)
    channel.move_nodes(moved, positions[moved])
    assert_budgets_identical(channel, make_channel(positions))
    assert_matches_reference(channel)


def test_pair_distance_3d():
    positions = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 12.0]])
    channel = make_channel(positions)
    assert channel.pair_distance_m(0, 1) == pytest.approx(13.0)


class TestValidation:
    def test_constructor_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match=r"\(N, 2\) or \(N, 3\)"):
            make_channel(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            make_channel(np.zeros(8))

    def test_set_positions_reports_configured_dim(self):
        channel = make_channel(positions_3d(10, seed=1))
        with pytest.raises(ValueError, match="3-D channel"):
            channel.set_positions(np.zeros((10, 2)))

    def test_move_nodes_reports_configured_dim(self):
        channel = make_channel(np.zeros((5, 2)))
        with pytest.raises(ValueError, match="2-D channel"):
            channel.move_nodes(np.array([0, 1]), np.zeros((2, 3)))

    def test_dim_attribute(self):
        assert make_channel(np.zeros((3, 2))).dim == 2
        assert make_channel(np.zeros((3, 3))).dim == 3
