"""Uniform-grid spatial index over 2-D or 3-D node positions.

The channel's link budget (:mod:`repro.phy.channel`) and the large-topology
connectivity check (:mod:`repro.topology.placement`) both need the same
primitive: *which nodes sit within radius r of this node*, answered without
materializing the O(n²) pairwise-distance matrix.  :class:`UniformGrid`
hashes every node into a cubic cell of side ``cell_size_m`` and stores the
membership as one id array sorted by cell key — a CSR-style layout queried
with two :func:`numpy.searchsorted` calls per cell, so candidate generation
for a whole batch of sources is a handful of vectorized passes instead of a
Python loop over nodes.

The grid is dimension-agnostic: the cell key is a mixed-radix encoding of
the per-axis cell coordinates, and the query neighborhood is the Cartesian
product of per-axis offsets — 3×3 (9 cells) in 2-D, 3×3×3 (27 cells) in
3-D.  With ``cell_size_m >= r`` every pair within r falls inside that
1-cell neighborhood (``reach_cells=1``); larger query radii widen it via
``reach_cells``.  Candidates are a superset of the true neighbors — callers
apply their own exact distance or power test — but the superset is bounded
by local density, so the whole pipeline is O(n·k), not O(n²).
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["UniformGrid", "neighbor_pairs"]

_EMPTY = np.empty(0, dtype=np.int64)


class UniformGrid:
    """Uniform hash grid with sorted-key (CSR-style) cell membership."""

    def __init__(self, positions: np.ndarray, cell_size_m: float):
        if cell_size_m <= 0:
            raise ValueError("cell_size_m must be positive")
        self.cell_size_m = float(cell_size_m)
        self.rebin(positions)

    # ------------------------------------------------------------- building

    def rebin(self, positions: np.ndarray) -> None:
        """(Re)assign every node to its cell — one vectorized O(n) pass.

        Mobility calls this each tick with mostly-unchanged positions; the
        binning itself is cheap (a floor-divide, a normalize and an argsort),
        it is the *link budget* downstream that is worth recomputing only
        for the affected neighborhoods.
        """
        positions = np.asarray(positions, dtype=float)
        n = len(positions)
        self.n = n
        if n == 0:
            self.dim = 2
            self._cells: list[np.ndarray] = [_EMPTY, _EMPTY]
            self._ncells: list[int] = [1, 1]
            self._order = _EMPTY
            self._sorted_keys = _EMPTY
            return
        if positions.ndim != 2 or positions.shape[1] not in (2, 3):
            raise ValueError(
                f"positions must be (N, 2) or (N, 3), got {positions.shape}")
        self.dim = positions.shape[1]
        cells = []
        for axis in range(self.dim):
            c = np.floor(positions[:, axis] / self.cell_size_m).astype(np.int64)
            # Normalize to a zero-based box so linear keys stay small and
            # positive whatever the coordinate frame (mobility reflection
            # can momentarily produce negative coordinates).
            c -= c.min()
            cells.append(c)
        self._cells = cells
        self._ncells = [int(c.max()) + 1 for c in cells]
        # Mixed-radix linear key: for 2-D exactly the historical
        # ``cx * ncy + cy``, so 2-D candidate order is unchanged.
        keys = cells[0]
        for c, nc in zip(cells[1:], self._ncells[1:]):
            keys = keys * nc + c
        order = np.argsort(keys, kind="stable")
        self._order = order
        self._sorted_keys = keys[order]

    # -------------------------------------------------------------- queries

    def candidates(self, sources: np.ndarray,
                   reach_cells: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """Candidate ``(src, dst)`` pairs for every source id in ``sources``.

        ``dst`` ranges over every node in the ``(2·reach_cells+1)**dim``
        cell neighborhood of its source (self-pairs excluded).  Pairs come
        back unsorted and deduplicated-by-construction (neighbor cells are
        disjoint); callers typically sort/filter downstream.

        When no axis spans more than ``reach_cells + 1`` cells, every
        cell's neighborhood is the whole grid, so the answer is every pair:
        emitted in one repeat/tile, sorted by ``(src position, dst)``,
        instead of one pass per neighbor-cell offset.  This also bounds
        the loop for radii wider than the whole grid.
        """
        sources = np.asarray(sources, dtype=np.int64)
        if self.n == 0 or len(sources) == 0:
            return _EMPTY, _EMPTY
        if self._spans_grid(reach_cells):
            srcs = np.repeat(sources, self.n)
            dsts = np.tile(np.arange(self.n, dtype=np.int64), len(sources))
            keep = srcs != dsts
            return srcs[keep], dsts[keep]
        src_cells = [c[sources] for c in self._cells]
        offsets = range(-reach_cells, reach_cells + 1)
        out_src: list[np.ndarray] = []
        out_dst: list[np.ndarray] = []
        # itertools.product iterates the last axis fastest — for 2-D the
        # exact (dx outer, dy inner) order of the historical nested loops.
        for delta in itertools.product(offsets, repeat=self.dim):
            valid = None
            keys = None
            for axis, (d, nc) in enumerate(zip(delta, self._ncells)):
                nco = src_cells[axis] + d
                ok = (nco >= 0) & (nco < nc)
                valid = ok if valid is None else (valid & ok)
                keys = nco if keys is None else keys * nc + nco
            if not valid.any():
                continue
            keys = keys[valid]
            src_sel = sources[valid]
            lo = np.searchsorted(self._sorted_keys, keys, side="left")
            hi = np.searchsorted(self._sorted_keys, keys, side="right")
            counts = hi - lo
            total = int(counts.sum())
            if total == 0:
                continue
            # Segment-arange expansion: for source s with occupied
            # neighbor cell [lo, hi), emit order[lo], …, order[hi-1].
            rep_src = np.repeat(src_sel, counts)
            starts = np.repeat(lo, counts)
            segment = np.arange(total) - np.repeat(
                np.cumsum(counts) - counts, counts)
            out_src.append(rep_src)
            out_dst.append(self._order[starts + segment])
        if not out_src:
            return _EMPTY, _EMPTY
        srcs = np.concatenate(out_src)
        dsts = np.concatenate(out_dst)
        keep = srcs != dsts
        return srcs[keep], dsts[keep]

    def neighborhood_members(self, ids: np.ndarray,
                             reach_cells: int = 1) -> np.ndarray:
        """Unique node ids in the cell neighborhoods of ``ids`` (including
        ``ids`` themselves) — the set whose link-budget rows a move of
        ``ids`` can possibly change."""
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) and self._spans_grid(reach_cells):
            return np.arange(self.n, dtype=np.int64)
        _, dsts = self.candidates(ids, reach_cells=reach_cells)
        return np.union1d(dsts, ids)

    def _spans_grid(self, reach_cells: int) -> bool:
        """True when one cell's neighborhood covers the whole grid."""
        return max(self._ncells) <= reach_cells + 1

    def index_bytes(self) -> int:
        """Approximate bytes held by the index arrays (for the channel's
        link-budget gauge)."""
        return (self._sorted_keys.nbytes + self._order.nbytes
                + sum(c.nbytes for c in self._cells))


def neighbor_pairs(positions: np.ndarray,
                   range_m: float) -> tuple[np.ndarray, np.ndarray]:
    """All directed ``(src, dst)`` pairs with ``distance <= range_m``,
    computed through the grid in O(n·k) — the sparse counterpart of
    :func:`repro.topology.placement.adjacency`.  Dimension-agnostic: the
    exact distance test sums squared deltas over however many axes the
    positions carry."""
    positions = np.asarray(positions, dtype=float)
    if len(positions) == 0:
        return _EMPTY, _EMPTY
    grid = UniformGrid(positions, max(float(range_m), 1e-9))
    srcs, dsts = grid.candidates(np.arange(len(positions)))
    if len(srcs) == 0:
        return srcs, dsts
    diff = positions[srcs] - positions[dsts]
    within = (diff ** 2).sum(axis=-1) <= float(range_m) ** 2
    return srcs[within], dsts[within]
