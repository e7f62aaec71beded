"""Node placement generators, over 2-D or 3-D arenas.

The paper places nodes uniformly at random on a square terrain (100 nodes on
1000 m × 1000 m for Figure 1; 500 nodes on 2000 m × 2000 m for Figures 3-4).
:func:`connected_uniform` resamples until the induced unit-disk graph is
connected, because a partitioned topology makes delivery-ratio comparisons
meaningless (a packet to an unreachable destination says nothing about the
protocol).

Geometry comes from an :class:`~repro.topology.arena.Arena` — 2-D terrains
and 3-D deployment volumes run through the same generators, and every
distance predicate below sums squared deltas over however many axes the
positions carry.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.topology.arena import Arena

__all__ = [
    "uniform_random",
    "grid",
    "connected_uniform",
    "is_connected",
    "adjacency",
    "pairwise_distances",
]

#: Above this many nodes :func:`is_connected` switches from the dense
#: adjacency matrix (O(n²) memory) to a grid-indexed CSR BFS (O(n·k)) —
#: at 10k nodes the dense boolean+distance matrices alone would be ~900 MB.
_SPARSE_CONNECTIVITY_MIN_NODES = 2048


def pairwise_distances(positions: np.ndarray) -> np.ndarray:
    positions = np.asarray(positions, dtype=float)
    diff = positions[:, None, :] - positions[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def adjacency(positions: np.ndarray, range_m: float) -> np.ndarray:
    """Boolean unit-disk (unit-ball in 3-D) adjacency matrix (no self
    loops)."""
    dist = pairwise_distances(positions)
    adj = dist <= range_m
    np.fill_diagonal(adj, False)
    return adj


def is_connected(positions: np.ndarray, range_m: float) -> bool:
    """BFS connectivity over the unit-disk graph, vectorized per frontier.

    Small topologies use the dense adjacency matrix; past
    :data:`_SPARSE_CONNECTIVITY_MIN_NODES` the edges come from the uniform
    grid in :mod:`repro.phy.spatial` as a CSR neighbor list instead, so the
    10k-node scaling placements never materialize an N×N matrix.  Both paths
    decide the same predicate, in 2-D and 3-D alike.
    """
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    if n == 0:
        return True
    if n > _SPARSE_CONNECTIVITY_MIN_NODES:
        return _is_connected_sparse(positions, range_m)
    adj = adjacency(positions, range_m)
    visited = np.zeros(n, dtype=bool)
    frontier = np.zeros(n, dtype=bool)
    visited[0] = frontier[0] = True
    while frontier.any():
        reachable = adj[frontier].any(axis=0)
        frontier = reachable & ~visited
        visited |= frontier
    return bool(visited.all())


def _is_connected_sparse(positions: np.ndarray, range_m: float) -> bool:
    """CSR BFS over grid-generated neighbor pairs — O(n·k) memory."""
    from repro.phy.spatial import neighbor_pairs

    n = len(positions)
    srcs, dsts = neighbor_pairs(positions, range_m)
    order = np.argsort(srcs, kind="stable")
    srcs = srcs[order]
    dsts = dsts[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(srcs, minlength=n), out=indptr[1:])

    visited = np.zeros(n, dtype=bool)
    visited[0] = True
    frontier = np.array([0], dtype=np.int64)
    seen = 1
    while len(frontier):
        # Gather every neighbor of the frontier via segment-arange expansion.
        lo = indptr[frontier]
        counts = indptr[frontier + 1] - lo
        total = int(counts.sum())
        if total == 0:
            break
        starts = np.repeat(lo, counts)
        segment = np.arange(total) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
        neighbors = dsts[starts + segment]
        fresh = np.unique(neighbors[~visited[neighbors]])
        visited[fresh] = True
        seen += len(fresh)
        frontier = fresh
    return seen == n


def uniform_random(n: int, arena: Arena,
                   rng: np.random.Generator) -> np.ndarray:
    """``n`` nodes uniformly at random over the arena, shape ``(n, dim)``."""
    if n <= 0:
        raise ValueError("n must be positive")
    return arena.sample(rng, n)


def grid(rows: int, cols: int, spacing_m: float,
         origin: Sequence[float] = (0.0, 0.0),
         levels: int = 1) -> np.ndarray:
    """Regular grid placement — handy for deterministic protocol tests.

    ``origin`` sets the grid's anchor and its dimensionality: a 2-tuple
    yields ``(rows·cols, 2)`` points, a 3-tuple ``(levels·rows·cols, 3)``
    points with ``levels`` copies of the grid stacked ``spacing_m`` apart
    along z.  ``levels > 1`` requires a 3-D origin.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError("rows and cols must be positive")
    if levels <= 0:
        raise ValueError("levels must be positive")
    origin = tuple(float(v) for v in origin)
    if len(origin) not in (2, 3):
        raise ValueError(f"origin must have 2 or 3 coordinates, "
                         f"got {len(origin)}")
    if levels > 1 and len(origin) != 3:
        raise ValueError("stacked grids (levels > 1) need a 3-D origin")
    if len(origin) == 2:
        ox, oy = origin
        points = [(ox + c * spacing_m, oy + r * spacing_m)
                  for r in range(rows) for c in range(cols)]
    else:
        ox, oy, oz = origin
        points = [(ox + c * spacing_m, oy + r * spacing_m,
                   oz + level * spacing_m)
                  for level in range(levels)
                  for r in range(rows) for c in range(cols)]
    return np.asarray(points, dtype=float)


def connected_uniform(n: int, arena: Arena, range_m: float,
                      rng: np.random.Generator,
                      max_tries: int = 200) -> np.ndarray:
    """Uniform random placement, resampled until connected at ``range_m``."""
    for _ in range(max_tries):
        positions = arena.sample(rng, n)
        if is_connected(positions, range_m):
            return positions
    extents = "x".join(f"{e:g}" for e in arena.extents)
    raise RuntimeError(
        f"no connected placement of {n} nodes in {extents} m "
        f"at range {range_m} m after {max_tries} tries — density too low"
    )
