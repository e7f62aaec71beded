"""Unit tests for the uniform-grid spatial index."""

import numpy as np
import pytest

from repro.phy.spatial import UniformGrid, neighbor_pairs
from repro.topology.placement import adjacency


def brute_pairs(positions, range_m):
    dist = np.sqrt(((positions[:, None] - positions[None, :]) ** 2).sum(-1))
    srcs, dsts = np.nonzero(dist <= range_m)
    keep = srcs != dsts
    return set(zip(srcs[keep].tolist(), dsts[keep].tolist()))


class TestUniformGrid:
    def test_rejects_nonpositive_cell(self):
        with pytest.raises(ValueError, match="cell_size_m"):
            UniformGrid(np.zeros((3, 2)), 0.0)

    def test_candidates_superset_of_pairs_within_cell_radius(self):
        rng = np.random.default_rng(3)
        positions = rng.uniform(0, 900, size=(120, 2))
        cell = 150.0
        grid = UniformGrid(positions, cell)
        srcs, dsts = grid.candidates(np.arange(len(positions)))
        got = set(zip(srcs.tolist(), dsts.tolist()))
        # Every true pair within the cell size must be a candidate.
        assert brute_pairs(positions, cell) <= got
        # No self pairs, no duplicates.
        assert all(s != d for s, d in got)
        assert len(got) == len(srcs)

    def test_candidates_subset_of_sources(self):
        rng = np.random.default_rng(4)
        positions = rng.uniform(0, 500, size=(60, 2))
        grid = UniformGrid(positions, 100.0)
        sources = np.array([3, 17, 42])
        srcs, _dsts = grid.candidates(sources)
        assert set(srcs.tolist()) <= set(sources.tolist())

    def test_wider_reach_cells_covers_larger_radius(self):
        rng = np.random.default_rng(5)
        positions = rng.uniform(0, 600, size=(80, 2))
        grid = UniformGrid(positions, 100.0)
        srcs, dsts = grid.candidates(np.arange(80), reach_cells=3)
        got = set(zip(srcs.tolist(), dsts.tolist()))
        assert brute_pairs(positions, 300.0) <= got

    def test_rebin_follows_positions(self):
        positions = np.array([[0.0, 0.0], [10.0, 0.0], [500.0, 500.0]])
        grid = UniformGrid(positions, 50.0)
        srcs, dsts = grid.candidates(np.array([0]))
        assert set(dsts.tolist()) == {1}
        positions[2] = [20.0, 0.0]
        grid.rebin(positions)
        _, dsts = grid.candidates(np.array([0]))
        assert set(dsts.tolist()) == {1, 2}

    def test_negative_coordinates_are_normalized(self):
        positions = np.array([[-120.0, -80.0], [-100.0, -80.0], [300.0, 200.0]])
        grid = UniformGrid(positions, 50.0)
        _, dsts = grid.candidates(np.array([0]))
        assert 1 in dsts.tolist()

    def test_neighborhood_members_includes_ids_and_neighbors(self):
        positions = np.array([[0.0, 0.0], [10.0, 0.0], [900.0, 900.0]])
        grid = UniformGrid(positions, 50.0)
        members = grid.neighborhood_members(np.array([0]))
        assert 0 in members and 1 in members
        assert 2 not in members

    def test_empty_grid_and_empty_sources(self):
        grid = UniformGrid(np.empty((0, 2)), 10.0)
        srcs, dsts = grid.candidates(np.empty(0, dtype=np.int64))
        assert len(srcs) == 0 and len(dsts) == 0
        grid2 = UniformGrid(np.zeros((4, 2)), 10.0)
        srcs, dsts = grid2.candidates(np.empty(0, dtype=np.int64))
        assert len(srcs) == 0

    def test_huge_reach_cells_is_clamped(self):
        positions = np.random.default_rng(0).uniform(0, 100, size=(10, 2))
        grid = UniformGrid(positions, 10.0)
        srcs, dsts = grid.candidates(np.arange(10), reach_cells=10_000)
        got = set(zip(srcs.tolist(), dsts.tolist()))
        assert len(got) == 10 * 9  # all ordered pairs

    @pytest.mark.parametrize("dim", [2, 3])
    def test_grid_within_one_neighborhood_gives_all_pairs(self, dim):
        """Two cells per axis: every cell neighbors every other, so the
        candidates are every ordered pair, sorted, self-pairs dropped."""
        positions = np.random.default_rng(dim).uniform(0, 190, size=(25, dim))
        grid = UniformGrid(positions, 100.0)
        assert max(grid._ncells) == 2
        sources = np.array([3, 7, 20])
        srcs, dsts = grid.candidates(sources)
        expected = [(s, d) for s in sources.tolist() for d in range(25)
                    if d != s]
        assert list(zip(srcs.tolist(), dsts.tolist())) == expected
        assert grid.neighborhood_members(np.array([4])).tolist() == \
            list(range(25))

    def test_three_cells_per_axis_keep_the_grid(self):
        positions = np.array([[0.0, 0.0], [150.0, 0.0], [250.0, 0.0]])
        grid = UniformGrid(positions, 100.0)
        assert max(grid._ncells) == 3
        _, dsts = grid.candidates(np.array([0]))
        assert dsts.tolist() == [1]  # node 2 is two cells away
        assert grid.neighborhood_members(np.array([0])).tolist() == [0, 1]


class TestNeighborPairs:
    def test_matches_dense_adjacency(self):
        rng = np.random.default_rng(11)
        positions = rng.uniform(0, 800, size=(150, 2))
        range_m = 170.0
        srcs, dsts = neighbor_pairs(positions, range_m)
        got = set(zip(srcs.tolist(), dsts.tolist()))
        adj = adjacency(positions, range_m)
        expected = set(zip(*(a.tolist() for a in np.nonzero(adj))))
        assert got == expected

    def test_empty_positions(self):
        srcs, dsts = neighbor_pairs(np.empty((0, 2)), 100.0)
        assert len(srcs) == 0 and len(dsts) == 0
