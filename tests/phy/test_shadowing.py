"""Tests for per-link log-normal shadowing and unidirectional links."""

import numpy as np
import pytest

from repro.experiments.common import (
    ScenarioConfig,
    attach_cbr,
    build_protocol_network,
    pick_flows,
)
from repro.phy.channel import Channel
from repro.phy.propagation import FreeSpace
from repro.sim.rng import RandomStreams
from tests.conftest import line_positions, make_phy_stack
from tests.phy.link_budget_reference import (
    assert_matches_reference,
    reference_matrices,
)


def shadowed_channel(ctx, n=20, sigma=6.0, asymmetric=False, seed_positions=3):
    rng = np.random.default_rng(seed_positions)
    positions = rng.uniform(0, 500, size=(n, 2))
    return Channel(ctx, positions, FreeSpace(), 15.0, -70.0,
                   shadowing_sigma_db=sigma, shadowing_asymmetric=asymmetric)


class TestShadowingMatrix:
    def test_symmetric_by_default(self, ctx):
        channel = shadowed_channel(ctx)
        assert np.allclose(channel.shadowing_db, channel.shadowing_db.T)

    def test_asymmetric_option(self, ctx):
        channel = shadowed_channel(ctx, asymmetric=True)
        assert not np.allclose(channel.shadowing_db, channel.shadowing_db.T)

    def test_sigma_respected(self, ctx):
        channel = shadowed_channel(ctx, n=60, sigma=8.0)
        off_diag = channel.shadowing_db[~np.eye(60, dtype=bool)]
        assert off_diag.std() == pytest.approx(8.0, rel=0.15)

    def test_zero_sigma_disables(self, ctx):
        channel = shadowed_channel(ctx, sigma=0.0)
        assert channel.shadowing_db is None

    def test_negative_sigma_rejected(self, ctx):
        with pytest.raises(ValueError):
            shadowed_channel(ctx, sigma=-1.0)

    def test_shadowing_shifts_link_budget(self, ctx):
        rng = np.random.default_rng(3)
        positions = rng.uniform(0, 500, size=(10, 2))
        plain = Channel(ctx, positions, FreeSpace(), 15.0, -70.0)
        shadowed = Channel(ctx, positions, FreeSpace(), 15.0, -70.0,
                           shadowing_sigma_db=6.0)
        assert plain._reach_powers != shadowed._reach_powers
        assert_matches_reference(shadowed)

    def test_shadowing_survives_position_updates(self, ctx):
        channel = shadowed_channel(ctx)
        before = channel.shadowing_db.copy()
        channel.set_positions(channel.positions + 10.0)
        assert np.array_equal(channel.shadowing_db, before)
        assert_matches_reference(channel)

    def test_asymmetric_creates_unidirectional_links(self, ctx):
        channel = shadowed_channel(ctx, n=40, sigma=8.0, asymmetric=True)
        threshold = -64.0
        _, power, _ = reference_matrices(channel)
        forward = power >= threshold
        unidirectional = forward & ~forward.T
        np.fill_diagonal(unidirectional, False)
        assert unidirectional.any()
        src, dst = map(int, np.argwhere(unidirectional)[0])
        assert dst in channel.neighbors(src, threshold)
        assert src not in channel.neighbors(dst, threshold)


class TestUnidirectionalLinksClaim:
    """Section 4: 'The existence of unidirectional links may negatively
    affect the efficiency, but not the correctness of the protocol.'"""

    def run_rr(self, asymmetric, seed):
        scenario = ScenarioConfig(
            n_nodes=60, width_m=650, height_m=650, range_m=250, seed=seed,
            shadowing_sigma_db=6.0, shadowing_asymmetric=asymmetric,
        )
        net = build_protocol_network("routeless", scenario)
        flows = pick_flows(60, 3, RandomStreams(seed + 3).stream("uni"),
                           bidirectional=True)
        attach_cbr(net, flows, interval_s=1.0, stop_s=12.0)
        net.run(until=15.0)
        return net

    def test_correctness_survives_asymmetry(self):
        # Dense enough that asymmetric shadowing cannot partition the net:
        # delivery must stay high even with unidirectional links present.
        deliveries = []
        for seed in (1, 2, 3):
            net = self.run_rr(asymmetric=True, seed=seed)
            deliveries.append(net.summary().delivery_ratio)
        assert sum(deliveries) / len(deliveries) > 0.9

    def test_no_false_deliveries_or_loops(self):
        net = self.run_rr(asymmetric=True, seed=4)
        assert net.metrics.delivered <= net.metrics.generated
        for delivery in net.metrics.deliveries:
            assert len(delivery.path) == len(set(delivery.path))
