"""The shared wireless medium.

The channel owns node positions and the propagation model, precomputing the
link budget so the per-transmission hot path reduces to an indexed lookup
plus one scheduler call per reachable neighbor.  "Reachable" means
*sensable*: every node that would register energy above its carrier-sense
threshold gets the frame's leading and trailing edges, because carrier
sensing by non-decoders is part of the protocols' behaviour.

The link budget is stored per source, CSR-style: for each node, the
receivers that can sense it (``reach``), their received powers and their
propagation delays — nothing for pairs that cannot hear each other.
Candidate pairs come from a uniform-grid spatial index
(:mod:`repro.phy.spatial`) whose cells are as wide as the reach radius, so
a rebuild costs O(n·k) in the local density k; on small deployments, where
every cell neighbors every other, the grid hands back all pairs at once.
Mobility ticks go through :meth:`move_nodes`, which re-bins the moved
nodes and recomputes only the affected grid neighborhoods.  Per-link
shadowing and fault offsets are added to the same rows, and the radius
widens by the largest positive shadowing draw so no boosted link is lost.

Per-link propagation delay (distance / c) is modelled by default.  The paper
treats it as negligible — and at these scales it is (µs against ms-scale
backoffs) — but keeping it nonzero breaks exact ties between receivers
naturally instead of through scheduler ordering.

The channel is also where the evaluation's "Number of MAC Packets" metric is
counted: every frame put on the air increments :attr:`tx_count`, bucketed by
frame kind.
"""

from __future__ import annotations

import math
from collections import Counter, OrderedDict
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.phy.propagation import SPEED_OF_LIGHT, PropagationModel
from repro.phy.radio import Reception
from repro.phy.spatial import UniformGrid
from repro.sim.components import Component, SimContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.frame import Frame
    from repro.phy.radio import Transceiver

__all__ = ["Channel", "NEIGHBOR_CACHE_THRESHOLDS"]

#: Distinct explicit thresholds memoized by :meth:`Channel.neighbors` before
#: the least-recently-used one is evicted — bounds the cache under
#: ``reach_threshold_dbm`` sweeps.
NEIGHBOR_CACHE_THRESHOLDS = 32

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_F64 = np.empty(0, dtype=float)


class Channel(Component):
    """Broadcast medium connecting every registered transceiver.

    Parameters
    ----------
    positions:
        ``(N, 2)`` or ``(N, 3)`` array of node coordinates in meters.  The
        channel's dimensionality is fixed at construction from this shape;
        every later position update must match it.
    model:
        Propagation model used for the link budget.
    tx_power_dbm:
        Transmit power, identical for all nodes (as in the paper).
    reach_threshold_dbm:
        Minimum received power at which a frame is delivered to a node at
        all.  Set this to the *lowest* carrier-sense threshold in the
        network; radios discard what they cannot even sense.
    propagation_delay:
        Model per-link delay of ``distance / c`` when True.
    shadowing_sigma_db:
        Standard deviation of per-link log-normal shadowing (dB); 0
        disables it.
    shadowing_asymmetric:
        Draw each link direction independently (unidirectional links).
    """

    def __init__(
        self,
        ctx: SimContext,
        positions: np.ndarray,
        model: PropagationModel,
        tx_power_dbm: float,
        reach_threshold_dbm: float,
        propagation_delay: bool = True,
        shadowing_sigma_db: float = 0.0,
        shadowing_asymmetric: bool = False,
    ):
        super().__init__(ctx, "channel")
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 2 or positions.shape[1] not in (2, 3):
            raise ValueError(
                f"positions must be (N, 2) or (N, 3), got {positions.shape}")
        if shadowing_sigma_db < 0:
            raise ValueError("shadowing_sigma_db must be non-negative")
        self.model = model
        self.tx_power_dbm = float(tx_power_dbm)
        self.reach_threshold_dbm = float(reach_threshold_dbm)
        self._propagation_delay = propagation_delay
        self.n_nodes = len(positions)
        #: Coordinate dimensionality (2 or 3), fixed at construction.
        self.dim = int(positions.shape[1])

        #: Per-link log-normal shadowing (dB), fixed per link for the run.
        #: Symmetric by default; asymmetric shadowing produces the
        #: *unidirectional links* whose effect on Routeless Routing the paper
        #: discusses ("may negatively affect the efficiency, but not the
        #: correctness").
        if shadowing_sigma_db > 0:
            rng = ctx.streams.stream("channel.shadowing")
            raw = rng.normal(0.0, shadowing_sigma_db,
                             size=(self.n_nodes, self.n_nodes))
            if not shadowing_asymmetric:
                raw = (raw + raw.T) / np.sqrt(2.0)  # symmetrize, keep sigma
            np.fill_diagonal(raw, 0.0)
            self.shadowing_db = raw
        else:
            self.shadowing_db = None
        # No pair gains more than the largest draw, so every reach radius
        # is taken at a floor lowered by it.
        self._shadow_headroom_db = (
            0.0 if self.shadowing_db is None
            else max(float(self.shadowing_db.max()), 0.0))

        # With stochastic fading a deep fade can only lose frames, never
        # extend reach beyond +fade_headroom_db; reach lists are widened by
        # that headroom so constructive fades still deliver.
        self._headroom_db = 10.0 if model.stochastic else 0.0

        #: Per-link additive pathloss offsets (dB) — the fault injector's
        #: handle on the medium (link degradation, asymmetry, partitions).
        #: ``offsets[i, j]`` (or ``offsets[(i, j)]`` in mapping form) is
        #: added to the i→j link budget, so a negative value degrades the
        #: link and ``-inf``-like values sever it; asymmetric offsets give
        #: unidirectional links.  Only the offset-bearing pairs are kept.
        self._offset_pairs: dict[tuple[int, int], float] = {}
        self._offset_pk: np.ndarray = _EMPTY_IDS  # sorted i*n+j keys
        self._offset_vals: np.ndarray = _EMPTY_F64
        self._offset_src: np.ndarray = _EMPTY_IDS

        # Grid index (built by set_positions), its cell size the radius
        # beyond which no pair clears the reach floor.
        self._grid: UniformGrid | None = None
        self._threshold_radius: dict[float, float] = {}
        self._candidate_radius_m = self._radius_for_threshold(
            self.reach_threshold_dbm - self._headroom_db)

        #: LRU memo for explicit-threshold :meth:`neighbors` queries:
        #: threshold -> {node_id -> ids}, bounded to
        #: :data:`NEIGHBOR_CACHE_THRESHOLDS` distinct thresholds.
        self._neighbors_cache: OrderedDict[float, dict[int, np.ndarray]] = \
            OrderedDict()

        self.set_positions(positions)

        # Dense, id-indexed: transmit() does one list index per receiver
        # instead of a dict lookup + int() conversion.
        self._radios: list["Transceiver | None"] = [None] * self.n_nodes
        self._fade_rng = ctx.streams.stream("channel.fading")

        #: Total frames put on the air (the paper's MAC packet count).
        self.tx_count = 0
        #: Same, bucketed by ``frame.kind``.
        self.tx_count_by_kind: Counter[str] = Counter()
        #: Cumulative airtime of every transmission (seconds).  Divided by
        #: elapsed time this is the network-wide offered channel load —
        #: >1 means spatial reuse is carrying more than one medium's worth.
        self.airtime_s = 0.0
        self.airtime_by_kind: Counter[str] = Counter()

    # ---------------------------------------------------------------- wiring

    def set_positions(self, positions: np.ndarray) -> None:
        """(Re)compute the link budget for new node positions.

        Called at construction and on wholesale placement changes: re-bins
        the grid and rebuilds every per-source row (O(n·k)).  Mobility
        managers should prefer :meth:`move_nodes`, which only touches the
        affected neighborhoods.  Frames already in flight keep the power
        they were launched with (mobility ticks are coarse against packet
        airtimes).
        """
        positions = np.asarray(positions, dtype=float)
        if positions.shape != (self.n_nodes, self.dim):
            raise ValueError(
                f"positions must be ({self.n_nodes}, {self.dim}) for this "
                f"{self.dim}-D channel, got {positions.shape}")
        self.positions = positions.copy()
        self._rebin_grid()
        self._rebuild_sources(None)
        self._after_rebuild()

    def move_nodes(self, ids, new_positions) -> None:
        """Incremental mobility update: ``ids`` moved to ``new_positions``.

        Re-bins the moved nodes and recomputes the link budget solely for
        sources whose grid neighborhood contained a moved node before or
        after the move — everyone else's rows are untouched, so a tick
        where a fraction of the network moves costs a fraction of a
        rebuild.  On a grid small enough that every cell neighbors every
        other, the affected set is everyone and this is one full rebuild.
        Results are identical to a full :meth:`set_positions` with the
        same final positions.
        """
        ids = np.asarray(ids, dtype=np.int64)
        new_positions = np.asarray(new_positions, dtype=float)
        if new_positions.shape != (len(ids), self.dim):
            raise ValueError(
                f"new_positions must be ({len(ids)}, {self.dim}) for this "
                f"{self.dim}-D channel, got {new_positions.shape}")
        if len(ids) == 0:
            return
        if ids.min() < 0 or ids.max() >= self.n_nodes:
            raise ValueError(f"node ids out of range 0..{self.n_nodes - 1}")
        assert self._grid is not None
        if len(ids) >= self.n_nodes:
            # Everyone moved: the affected set is everyone by definition,
            # so skip the neighborhood bookkeeping and rebuild outright.
            self.positions[ids] = new_positions
            self._rebin_grid()
            self._rebuild_sources(None)
            self._after_rebuild()
            return
        affected_old = self._grid.neighborhood_members(ids)
        self.positions[ids] = new_positions
        self._rebin_grid()
        affected_new = self._grid.neighborhood_members(ids)
        affected = np.union1d(affected_old, affected_new)
        # When (nearly) everyone is affected the restricted pass degenerates
        # to the full one; take the simpler code path.
        self._rebuild_sources(None if len(affected) >= self.n_nodes
                              else affected)
        self._after_rebuild()

    def set_link_offsets(
        self, offsets_db: "Mapping[tuple[int, int], float] | None",
    ) -> None:
        """Install (or clear, with ``None``) per-link pathloss offsets and
        patch the link budget.

        Fault-injection entry point, taking a sparse ``{(i, j): db}``
        mapping.  Positions are unchanged by definition, so only the rows
        of sources that carry an offset before or after this call are
        rebuilt.  Frames already in flight keep the power they were
        launched with.
        """
        pairs = self._validate_offsets(offsets_db or {})
        changed = {i for i, _ in self._offset_pairs} | {i for i, _ in pairs}
        self._store_offsets(pairs)
        if changed:
            self._rebuild_sources(
                np.fromiter(changed, dtype=np.int64, count=len(changed)))
        self._after_rebuild()

    def _validate_offsets(
        self, offsets_db: "Mapping[tuple[int, int], float]",
    ) -> dict[tuple[int, int], float]:
        """Check an offset mapping and drop its zero entries."""
        pairs: dict[tuple[int, int], float] = {}
        for (i, j), db in offsets_db.items():
            i, j, db = int(i), int(j), float(db)
            if not (0 <= i < self.n_nodes and 0 <= j < self.n_nodes):
                raise ValueError(
                    f"offset pair ({i}, {j}) outside 0..{self.n_nodes - 1}")
            if math.isnan(db):
                raise ValueError(f"offset for pair ({i}, {j}) is NaN")
            if db != 0.0:
                pairs[(i, j)] = db
        return pairs

    def _store_offsets(self, pairs: dict[tuple[int, int], float]) -> None:
        self._offset_pairs = dict(pairs)
        if pairs:
            n = self.n_nodes
            pk = np.fromiter((i * n + j for i, j in pairs),
                             dtype=np.int64, count=len(pairs))
            vals = np.fromiter(pairs.values(), dtype=float, count=len(pairs))
            order = np.argsort(pk)
            self._offset_pk = pk[order]
            self._offset_vals = vals[order]
            self._offset_src = self._offset_pk // n
        else:
            self._offset_pk = _EMPTY_IDS
            self._offset_vals = _EMPTY_F64
            self._offset_src = _EMPTY_IDS

    def register(self, radio: "Transceiver") -> None:
        if not 0 <= radio.node_id < self.n_nodes:
            raise ValueError(f"node id {radio.node_id} out of range 0..{self.n_nodes - 1}")
        if self._radios[radio.node_id] is not None:
            raise ValueError(f"node {radio.node_id} already registered")
        self._radios[radio.node_id] = radio

    # ------------------------------------------------------------ link budget

    def _rebin_grid(self) -> None:
        cell = max(self._candidate_radius_m, 1.0)
        if self._grid is None or self._grid.cell_size_m != cell:
            self._grid = UniformGrid(self.positions, cell)
        else:
            self._grid.rebin(self.positions)

    def _offsets_for_keys(self, pk: np.ndarray) -> np.ndarray:
        """Vectorized offset lookup for packed ``src * n + dst`` keys."""
        out = np.zeros(len(pk))
        if len(self._offset_pk):
            pos = np.searchsorted(self._offset_pk, pk)
            pos_c = np.minimum(pos, len(self._offset_pk) - 1)
            hit = self._offset_pk[pos_c] == pk
            out[hit] = self._offset_vals[pos_c[hit]]
        return out

    def _rebuild_sources(self, sources: np.ndarray | None) -> None:
        """Recompute the per-source reach/power/delay rows.

        ``sources=None`` rebuilds every row (fresh structures); an id array
        patches only those rows in place.  One vectorized pass over the
        candidate pairs either way.  Each surviving power is
        ``(pathloss + shadowing) + offset`` in that order, so a row does not
        depend on which rebuild produced it.
        """
        assert self._grid is not None
        n = self.n_nodes
        full = sources is None
        if full:
            sources = np.arange(n, dtype=np.int64)
        else:
            sources = np.unique(np.asarray(sources, dtype=np.int64))

        srcs, dsts = self._grid.candidates(sources)
        pk = srcs * n + dsts
        has_extras = False
        if len(self._offset_pk):
            # Offset-bearing pairs are candidates even beyond the grid
            # radius: a positive offset can extend reach.
            extra = np.isin(self._offset_src, sources)
            if extra.any():
                pk = np.concatenate([pk, self._offset_pk[extra]])
                has_extras = True
        if has_extras:
            pk = np.unique(pk)  # sorted by (src, dst); dedups the extras
        else:
            # Grid candidates are unique by construction (neighbor cells
            # are disjoint): a plain sort gives the same (src, dst) order
            # np.unique would, at a fraction of the cost.
            pk.sort()
        srcs = pk // n
        dsts = pk % n

        # 1-D per-axis gathers beat fancy-indexing (k, dim) rows by a wide
        # margin; the left-to-right ``dx*dx + dy*dy [+ dz*dz]`` sum is the
        # same addition order as ``(diff**2).sum(axis=-1)``.
        pos = self.positions
        axes = [np.ascontiguousarray(pos[:, a]) for a in range(self.dim)]
        d2 = None
        for axis in axes:
            delta = axis[srcs] - axis[dsts]
            sq = delta * delta
            d2 = sq if d2 is None else d2 + sq
        if not len(self._offset_pk):
            # No offsets can rescue a far pair, so prune the square-cell
            # corners by squared distance before paying for sqrt/log10 on
            # them — only ~π/9 of candidates survive.  The slack absorbs
            # ulp-level rounding; the exact power test below still decides.
            r = self._candidate_radius_m + 1e-6
            within = d2 <= r * r
            srcs = srcs[within]
            dsts = dsts[within]
            d2 = d2[within]
            pk = pk[within]
        dist = np.sqrt(d2)
        power = self.model.rx_power_dbm(self.tx_power_dbm, dist)
        if self.shadowing_db is not None:
            power = power + self.shadowing_db[srcs, dsts]
        if len(self._offset_pk):
            power = power + self._offsets_for_keys(pk)
        keep = power >= (self.reach_threshold_dbm - self._headroom_db)
        srcs = srcs[keep]
        dsts = dsts[keep]
        dist = dist[keep]
        power = power[keep]
        if self._propagation_delay:
            delay = dist / SPEED_OF_LIGHT
        else:
            delay = np.zeros_like(dist)

        counts = np.bincount(srcs, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indptr = indptr.tolist()  # plain-int slice bounds: faster slicing
        ids_list = dsts.tolist()
        powers_list = power.tolist()
        delays_list = delay.tolist()

        if full:
            # Rebuilding every row: batch the per-source slicing through
            # shared slice objects — measurably faster than an indexed
            # store loop at n=10k, and this is the mobility-tick hot path.
            slices = list(map(slice, indptr[:-1], indptr[1:]))
            self.reach = [dsts[sl] for sl in slices]
            self._reach_power_arrays = [power[sl] for sl in slices]
            self._reach_ids = [ids_list[sl] for sl in slices]
            self._reach_powers = [powers_list[sl] for sl in slices]
            self._reach_delays = [delays_list[sl] for sl in slices]
            return
        reach = self.reach
        power_arrays = self._reach_power_arrays
        reach_ids = self._reach_ids
        reach_powers = self._reach_powers
        reach_delays = self._reach_delays
        for s in sources.tolist():
            lo = indptr[s]
            hi = indptr[s + 1]
            reach[s] = dsts[lo:hi]
            power_arrays[s] = power[lo:hi]
            reach_ids[s] = ids_list[lo:hi]
            reach_powers[s] = powers_list[lo:hi]
            reach_delays[s] = delays_list[lo:hi]

    # ------------------------------------------------------------- accessors

    def pair_distance_m(self, src_id: int, dst_id: int) -> float:
        """Distance between two nodes, summed in the same axis order as the
        link-budget rows."""
        p = self.positions
        d2 = 0.0
        for axis in range(self.dim):
            delta = p[src_id, axis] - p[dst_id, axis]
            d2 += delta * delta
        return math.sqrt(d2)

    def link_budget_bytes(self) -> int:
        """Approximate bytes held by the link-budget representation —
        what the ``repro_channel_link_budget_bytes`` gauge reports."""
        total = 0
        for row in self.reach:
            total += row.nbytes
        for row in self._reach_power_arrays:
            total += row.nbytes
        # Python-list mirrors: ~8-byte slot per element, three lists
        # (the boxed floats/ints they reference are shared or cached).
        total += sum(len(r) for r in self._reach_ids) * 3 * 8
        total += self.positions.nbytes
        if self._grid is not None:
            total += self._grid.index_bytes()
        if self.shadowing_db is not None:
            total += self.shadowing_db.nbytes
        return total

    def _after_rebuild(self) -> None:
        self._neighbors_cache.clear()
        if self.ctx.observing:
            self.ctx.obs.on_link_budget(self.link_budget_bytes())

    def _radius_for_threshold(self, threshold_dbm: float) -> float:
        """Distance beyond which no pair's power, shadowing included,
        clears ``threshold_dbm`` (memoized per threshold)."""
        radius = self._threshold_radius.get(threshold_dbm)
        if radius is None:
            radius = self.model.max_range_m(
                self.tx_power_dbm, threshold_dbm - self._shadow_headroom_db)
            if len(self._threshold_radius) >= NEIGHBOR_CACHE_THRESHOLDS:
                self._threshold_radius.clear()
            self._threshold_radius[threshold_dbm] = radius
        return radius

    def _neighbors_at(self, node_id: int, threshold_dbm: float) -> np.ndarray:
        """Explicit-threshold neighbor query against the grid: widen the
        cell neighborhood to the threshold's own radius, then apply the
        exact power test the rebuild applies."""
        assert self._grid is not None
        radius = self._radius_for_threshold(threshold_dbm)
        cell = self._grid.cell_size_m
        reach_cells = max(1, int(math.ceil(radius / cell)))
        source = np.array([node_id], dtype=np.int64)
        srcs, dsts = self._grid.candidates(source, reach_cells=reach_cells)
        n = self.n_nodes
        pk = srcs * n + dsts
        if len(self._offset_pk):
            extra = self._offset_src == node_id
            if extra.any():
                pk = np.concatenate([pk, self._offset_pk[extra]])
        pk = np.unique(pk)
        dsts = pk % n
        pos = self.positions
        diff = pos[node_id] - pos[dsts]
        dist = np.sqrt((diff**2).sum(axis=-1))
        power = self.model.rx_power_dbm(self.tx_power_dbm, dist)
        if self.shadowing_db is not None:
            power = power + self.shadowing_db[node_id, dsts]
        if len(self._offset_pk):
            power = power + self._offsets_for_keys(pk)
        return dsts[power >= threshold_dbm]

    def neighbors(self, node_id: int, threshold_dbm: float | None = None) -> np.ndarray:
        """Node ids whose mean received power from ``node_id`` clears the
        threshold (defaults to the channel reach floor).

        The default-threshold answer is the precomputed ``reach`` list;
        explicit thresholds are computed on demand and memoized in an LRU
        cache bounded to :data:`NEIGHBOR_CACHE_THRESHOLDS` distinct
        thresholds (invalidated by any link-budget rebuild), so threshold
        sweeps cannot grow the memo without limit.
        """
        if threshold_dbm is None:
            return self.reach[node_id]
        per_threshold = self._neighbors_cache.get(threshold_dbm)
        if per_threshold is None:
            while len(self._neighbors_cache) >= NEIGHBOR_CACHE_THRESHOLDS:
                self._neighbors_cache.popitem(last=False)
            per_threshold = {}
            self._neighbors_cache[threshold_dbm] = per_threshold
        else:
            self._neighbors_cache.move_to_end(threshold_dbm)
        cached = per_threshold.get(node_id)
        if cached is None:
            cached = self._neighbors_at(node_id, threshold_dbm)
            per_threshold[node_id] = cached
        return cached

    # ------------------------------------------------------------- transmit

    def transmit(self, src_id: int, frame: "Frame", duration: float) -> None:
        """Deliver ``frame`` to every reachable radio.

        Called by the source transceiver, which has already entered TX.
        The per-source receiver/power/delay slices are precomputed by the
        link-budget rebuilds; this method is an indexed lookup plus one
        batched schedule call.
        """
        kind = frame.kind
        self.tx_count += 1
        self.tx_count_by_kind[kind] += 1
        self.airtime_s += duration
        self.airtime_by_kind[kind] += duration
        if self.ctx.observing:
            payload = frame.payload
            self.ctx.obs.on_tx(self.ctx.now, src_id,
                               payload.uid if payload is not None else None,
                               kind, duration)

        receivers = self._reach_ids[src_id]
        if not receivers:
            return
        if self.model.stochastic:
            fade = self.model.sample_fade_db(self._fade_rng, len(receivers))
            powers = (self._reach_power_arrays[src_id] + fade).tolist()
        else:
            # Deterministic models: every precomputed receiver clears the
            # floor by construction (headroom is 0), so no per-receiver
            # threshold check is needed.
            powers = None

        radios = self._radios
        floor = self.reach_threshold_dbm
        items: list[tuple[float, Any, tuple]] = []
        append = items.append
        # One record per receiver; both edge events share its args tuple.
        if powers is None:
            for j, power, delay in zip(receivers, self._reach_powers[src_id],
                                       self._reach_delays[src_id]):
                radio = radios[j]
                if radio is None:
                    continue
                args = (Reception(frame, src_id, power),)
                append((delay, radio.begin_receive, args))
                append((delay + duration, radio.end_receive, args))
        else:
            for j, power, delay in zip(receivers, powers,
                                       self._reach_delays[src_id]):
                if power < floor:
                    continue  # faded below the floor for this reception
                radio = radios[j]
                if radio is None:
                    continue
                args = (Reception(frame, src_id, power),)
                append((delay, radio.begin_receive, args))
                append((delay + duration, radio.end_receive, args))
        if items:
            self.ctx.simulator.schedule_many(items)
