"""Tests for placement generators and connectivity checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.arena import Arena
from repro.topology.placement import (
    adjacency,
    connected_uniform,
    grid,
    is_connected,
    pairwise_distances,
    uniform_random,
)


class TestUniform:
    def test_within_bounds(self):
        rng = np.random.default_rng(0)
        positions = uniform_random(200, Arena(1000.0, 500.0), rng)
        assert positions.shape == (200, 2)
        assert (positions[:, 0] >= 0).all() and (positions[:, 0] <= 1000).all()
        assert (positions[:, 1] >= 0).all() and (positions[:, 1] <= 500).all()

    def test_deterministic_with_seed(self):
        a = uniform_random(10, Arena(100, 100), np.random.default_rng(1))
        b = uniform_random(10, Arena(100, 100), np.random.default_rng(1))
        assert np.array_equal(a, b)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            uniform_random(0, Arena(100, 100), np.random.default_rng(0))


class TestGrid:
    def test_shape_and_spacing(self):
        positions = grid(2, 3, spacing_m=10.0)
        assert positions.shape == (6, 2)
        assert np.allclose(positions[1] - positions[0], [10.0, 0.0])

    def test_origin_offset(self):
        positions = grid(1, 1, 10.0, origin=(5.0, 7.0))
        assert np.allclose(positions[0], [5.0, 7.0])

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            grid(0, 3, 10.0)


class TestConnectivity:
    def test_line_is_connected_at_sufficient_range(self):
        positions = np.array([[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]])
        assert is_connected(positions, 150.0)

    def test_split_line_is_disconnected(self):
        positions = np.array([[0.0, 0.0], [100.0, 0.0], [500.0, 0.0]])
        assert not is_connected(positions, 150.0)

    def test_single_node_connected(self):
        assert is_connected(np.array([[0.0, 0.0]]), 1.0)

    def test_adjacency_symmetric_no_self_loops(self):
        rng = np.random.default_rng(0)
        positions = uniform_random(30, Arena(500, 500), rng)
        adj = adjacency(positions, 200.0)
        assert (adj == adj.T).all()
        assert not adj.diagonal().any()

    def test_connected_uniform_always_connected(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            positions = connected_uniform(40, Arena(800, 800), 250.0, rng)
            assert is_connected(positions, 250.0)

    def test_connected_uniform_gives_up_when_impossible(self):
        rng = np.random.default_rng(0)
        with pytest.raises(RuntimeError):
            connected_uniform(50, Arena(100_000, 100_000), 10.0, rng,
                              max_tries=3)

    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_connectivity_matches_networkx(self, n, seed):
        import networkx as nx

        rng = np.random.default_rng(seed)
        positions = uniform_random(n, Arena(500, 500), rng)
        range_m = 200.0
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        dist = pairwise_distances(positions)
        for i in range(n):
            for j in range(i + 1, n):
                if dist[i, j] <= range_m:
                    graph.add_edge(i, j)
        assert is_connected(positions, range_m) == nx.is_connected(graph)


class TestDistances:
    def test_pairwise_matches_manual(self):
        positions = np.array([[0.0, 0.0], [3.0, 4.0]])
        dist = pairwise_distances(positions)
        assert dist[0, 1] == pytest.approx(5.0)
        assert dist[0, 0] == 0.0


class TestSparseConnectivity:
    """The grid-BFS path used above _SPARSE_CONNECTIVITY_MIN_NODES must
    agree with the dense matrix BFS it replaces."""

    def test_matches_dense_on_random_deployments(self):
        from repro.topology.placement import _is_connected_sparse

        for seed in range(12):
            rng = np.random.default_rng(seed)
            positions = uniform_random(120, Arena(900, 900), rng)
            range_m = 160.0
            assert (_is_connected_sparse(positions, range_m)
                    == is_connected(positions, range_m)), seed

    def test_line_and_split_line(self):
        from repro.topology.placement import _is_connected_sparse

        line = np.array([[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]])
        assert _is_connected_sparse(line, 150.0)
        split = np.array([[0.0, 0.0], [100.0, 0.0], [500.0, 0.0]])
        assert not _is_connected_sparse(split, 150.0)
        assert _is_connected_sparse(np.array([[0.0, 0.0]]), 1.0)
