"""The channel's CSR link budget: bit-identical equivalence with the dense
reference arithmetic (static, every model, moves, offsets, shadowing),
incremental updates, and the bounded neighbor cache."""

import math

import numpy as np
import pytest

from repro.phy.channel import NEIGHBOR_CACHE_THRESHOLDS, Channel
from repro.phy.propagation import (
    FreeSpace,
    LogDistance,
    RayleighFading,
    TwoRayGround,
    range_to_threshold_dbm,
)
from repro.sim.components import SimContext
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from tests.phy.link_budget_reference import (
    assert_matches_reference,
    reference_distance,
    reference_neighbors,
    reference_rows,
)


@pytest.fixture
def ctx_observed():
    from repro.obs.observe import Observability
    obs = Observability()
    return SimContext(Simulator(), RandomStreams(42), obs=obs), obs


MODEL = FreeSpace()
TX_DBM = 15.0
THRESHOLD = range_to_threshold_dbm(MODEL, TX_DBM, 250.0)


def positions_for(n, extent, seed=7):
    return np.random.default_rng(seed).uniform(0, extent, size=(n, 2))


def make_channel(ctx, positions, **kw):
    return Channel(ctx, positions, MODEL, TX_DBM, THRESHOLD, **kw)


class TestDenseSparseEquivalence:
    """The CSR rows against the dense reference arithmetic."""

    def test_static_budgets_bit_identical(self, ctx):
        assert_matches_reference(make_channel(ctx, positions_for(200, 1200)))

    @pytest.mark.parametrize("model", [
        FreeSpace(), TwoRayGround(), LogDistance(), RayleighFading()])
    def test_equivalence_across_models(self, ctx, model):
        positions = positions_for(120, 900)
        threshold = range_to_threshold_dbm(model, TX_DBM, 250.0)
        assert_matches_reference(
            Channel(ctx, positions, model, TX_DBM, threshold))

    def test_set_positions_rebuild_stays_identical(self, ctx):
        positions = positions_for(150, 1000)
        channel = make_channel(ctx, positions)
        moved = positions + np.random.default_rng(1).uniform(
            -40, 40, size=positions.shape)
        channel.set_positions(moved)
        assert_matches_reference(channel)

    def test_move_nodes_partial_matches_full_rebuild(self, ctx):
        positions = positions_for(150, 1000)
        channel = make_channel(ctx, positions)
        rng = np.random.default_rng(2)
        current = positions.copy()
        for _ in range(4):
            ids = rng.choice(150, size=20, replace=False)
            current[ids] += rng.uniform(-150, 150, size=(20, 2))
            channel.move_nodes(ids, current[ids])
            assert_matches_reference(channel)

    def test_move_nodes_all_nodes_matches_full_rebuild(self, ctx):
        positions = positions_for(150, 1000)
        channel = make_channel(ctx, positions)
        moved = positions + np.random.default_rng(3).uniform(
            -5, 5, size=positions.shape)
        channel.move_nodes(np.arange(150), moved)
        assert_matches_reference(channel)

    def test_move_nodes_on_an_all_pairs_grid(self, ctx):
        """Two grid cells per axis: every neighborhood is the whole grid,
        so a partial move is a full rebuild and still matches."""
        positions = positions_for(60, 400)
        channel = make_channel(ctx, positions)
        assert max(channel._grid._ncells) <= 2
        rng = np.random.default_rng(4)
        current = positions.copy()
        for _ in range(3):
            ids = rng.choice(60, size=8, replace=False)
            current[ids] = np.clip(
                current[ids] + rng.uniform(-80, 80, size=(8, 2)), 0, 775)
            channel.move_nodes(ids, current[ids])
            assert_matches_reference(channel)

    def test_neighbors_explicit_threshold_identical(self, ctx):
        channel = make_channel(ctx, positions_for(150, 1000))
        for node in (0, 42, 149):
            for delta in (-12.0, -3.0, 0.0, 3.0, 12.0):
                threshold = THRESHOLD + delta
                assert np.array_equal(
                    channel.neighbors(node, threshold),
                    reference_neighbors(channel, node, threshold))

    def test_pair_distance_identical(self, ctx):
        channel = make_channel(ctx, positions_for(60, 600))
        for i, j in ((0, 1), (5, 59), (30, 7)):
            assert channel.pair_distance_m(i, j) == \
                reference_distance(channel, i, j)


class TestShadowingAgainstReference:
    """Shadowing is gathered into the rows before the offsets, and the
    candidate radius widens by the largest positive draw."""

    @pytest.mark.parametrize("asymmetric", [False, True])
    def test_rows_match(self, ctx, asymmetric):
        channel = make_channel(ctx, positions_for(150, 1500),
                               shadowing_sigma_db=6.0,
                               shadowing_asymmetric=asymmetric)
        assert_matches_reference(channel)

    @pytest.mark.parametrize("asymmetric", [False, True])
    def test_moves_and_offsets_match(self, ctx, asymmetric):
        positions = positions_for(150, 1500)
        channel = make_channel(ctx, positions, shadowing_sigma_db=6.0,
                               shadowing_asymmetric=asymmetric)
        rng = np.random.default_rng(5)
        current = positions.copy()
        ids = rng.choice(150, size=15, replace=False)
        current[ids] += rng.uniform(-100, 100, size=(15, 2))
        channel.move_nodes(ids, current[ids])
        assert_matches_reference(channel)
        offsets = {(3, 4): -200.0, (7, 140): 25.0, (20, 21): -3.5}
        channel.set_link_offsets(offsets)
        assert_matches_reference(channel, offsets)

    def test_boosted_link_beyond_plain_radius_kept(self, ctx):
        channel = make_channel(ctx, positions_for(150, 1500),
                               shadowing_sigma_db=6.0)
        plain = make_channel(SimContext(Simulator(), RandomStreams(42)),
                               channel.positions)
        reach, _, _ = reference_rows(channel)
        extra = sum(len(set(reach[i].tolist()) - set(plain._reach_ids[i]))
                    for i in range(150))
        assert extra > 0  # shadowing lifts some links past the plain range
        assert channel._candidate_radius_m > plain._candidate_radius_m

    def test_neighbors_match(self, ctx):
        channel = make_channel(ctx, positions_for(150, 1500),
                               shadowing_sigma_db=6.0,
                               shadowing_asymmetric=True)
        for node in (0, 42, 149):
            for delta in (-6.0, 0.0, 6.0):
                threshold = THRESHOLD + delta
                assert np.array_equal(
                    channel.neighbors(node, threshold),
                    reference_neighbors(channel, node, threshold))


class TestSparseOffsets:
    def test_offsets_match_reference(self, ctx):
        channel = make_channel(ctx, positions_for(100, 800))
        offsets = {(3, 4): -200.0, (10, 11): -3.5}
        channel.set_link_offsets(offsets)
        assert_matches_reference(channel, offsets)
        assert 4 not in channel.reach[3]

    def test_positive_offset_extends_reach_beyond_grid_radius(self, ctx):
        positions = np.array([[0.0, 0.0], [2000.0, 0.0], [100.0, 0.0]])
        channel = make_channel(ctx, positions)
        assert 1 not in channel.reach[0]
        channel.set_link_offsets({(0, 1): 60.0})
        assert 1 in channel.reach[0]
        # And the explicit-threshold query sees it too.
        assert 1 in channel.neighbors(0, THRESHOLD)

    def test_clearing_offsets_restores_budget(self, ctx):
        channel = make_channel(ctx, positions_for(100, 800))
        channel.set_link_offsets({(3, 4): -200.0})
        channel.set_link_offsets(None)
        assert_matches_reference(channel)

    def test_out_of_range_pair_raises(self, ctx):
        channel = make_channel(ctx, positions_for(10, 300))
        with pytest.raises(ValueError, match="outside"):
            channel.set_link_offsets({(0, 99): -3.0})

    def test_nan_offset_rejected(self, ctx):
        channel = make_channel(ctx, positions_for(10, 300))
        with pytest.raises(ValueError, match="NaN"):
            channel.set_link_offsets({(0, 1): float("nan")})
        assert channel._offset_pairs == {}
        assert_matches_reference(channel)


class TestNeighborCacheBound:
    def test_lru_evicts_oldest_threshold(self, ctx):
        channel = make_channel(ctx, positions_for(30, 400))
        first = THRESHOLD - 1.0
        channel.neighbors(0, first)
        for k in range(NEIGHBOR_CACHE_THRESHOLDS):
            channel.neighbors(0, THRESHOLD + k)
        assert len(channel._neighbors_cache) == NEIGHBOR_CACHE_THRESHOLDS
        assert first not in channel._neighbors_cache

    def test_recently_used_threshold_survives(self, ctx):
        channel = make_channel(ctx, positions_for(30, 400))
        keep = THRESHOLD - 1.0
        channel.neighbors(0, keep)
        for k in range(NEIGHBOR_CACHE_THRESHOLDS - 1):
            channel.neighbors(0, THRESHOLD + k)
            channel.neighbors(0, keep)  # refresh recency
        assert keep in channel._neighbors_cache

    def test_rebuild_invalidates_cache(self, ctx):
        channel = make_channel(ctx, positions_for(30, 400))
        channel.neighbors(0, THRESHOLD - 1.0)
        assert channel._neighbors_cache
        channel.set_positions(channel.positions + 1.0)
        assert not channel._neighbors_cache


class TestLinkBudgetBytes:
    def test_rows_smaller_than_one_dense_matrix(self, ctx):
        channel = make_channel(ctx, positions_for(500, 2000))
        assert 0 < channel.link_budget_bytes() < 500 * 500 * 8

    def test_gauge_reports_peak(self, ctx_observed):
        ctx, obs = ctx_observed
        channel = make_channel(ctx, positions_for(64, 600))
        family = obs.registry.get("repro_channel_link_budget_bytes")
        samples = family.describe()["samples"]
        assert list(samples.values())[0] == pytest.approx(
            channel.link_budget_bytes())


class TestMaxRange:
    @pytest.mark.parametrize("model", [
        FreeSpace(), TwoRayGround(), LogDistance()])
    def test_inversion_brackets_the_threshold(self, model):
        threshold = range_to_threshold_dbm(model, TX_DBM, 250.0)
        radius = model.max_range_m(TX_DBM, threshold)
        assert radius >= 250.0 * (1 - 1e-9)
        assert model.rx_power_dbm(TX_DBM, radius * 1.001) < threshold

    def test_unreachable_threshold_gives_zero(self):
        assert MODEL.max_range_m(TX_DBM, 1000.0) == 0.0


class TestTransmitThroughSparse:
    def test_broadcast_delivery_identical(self, ctx):
        from repro.mac.frame import Frame
        from repro.phy.radio import RadioConfig, Transceiver

        channel = make_channel(ctx, positions_for(80, 600))
        config = RadioConfig(tx_power_dbm=TX_DBM, rx_threshold_dbm=THRESHOLD)
        radios = [Transceiver(ctx, i, channel, config) for i in range(80)]
        received = []
        for radio in radios[1:]:
            radio.to_mac.connect(
                lambda frame, info, r=radio:
                received.append((r.node_id, info.power_dbm)))
        frame = Frame(src=0, dst=None, seq=0, payload=None, size_bytes=100)
        radios[0].transmit(frame, 0.001)
        ctx.simulator.run()
        reach, powers, _ = reference_rows(channel)
        decodable = [(int(j), p) for j, p in zip(reach[0], powers[0].tolist())
                     if p >= THRESHOLD]
        assert sorted(received) == decodable
        assert received


def test_move_nodes_validates_input(ctx):
    channel = make_channel(ctx, positions_for(20, 300))
    with pytest.raises(ValueError, match="new_positions"):
        channel.move_nodes([0, 1], np.zeros((3, 2)))
    with pytest.raises(ValueError, match="out of range"):
        channel.move_nodes([99], np.zeros((1, 2)))
    channel.move_nodes([], np.empty((0, 2)))  # no-op


def test_grid_cell_size_tracks_reach_radius(ctx):
    channel = make_channel(ctx, positions_for(50, 500))
    assert channel._grid.cell_size_m == pytest.approx(
        channel._candidate_radius_m)
    assert channel._candidate_radius_m >= 250.0
    # Deterministic model: no fade headroom widening.
    assert math.isclose(
        channel._candidate_radius_m,
        MODEL.max_range_m(TX_DBM, THRESHOLD), rel_tol=1e-12)
