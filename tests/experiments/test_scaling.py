"""The scaling experiment's grids: quick CI defaults, the paper grid, and
the ``--large`` 10,000-node sparse-channel cell behind REPRO_LARGE_SCALE."""

import os

import pytest

from repro.experiments.common import large_scale, paper_scale
from repro.experiments.ext_scaling import ScalingConfig, run_one, terrain_for


@pytest.fixture(autouse=True)
def clean_scale_env(monkeypatch):
    monkeypatch.delenv("REPRO_LARGE_SCALE", raising=False)
    monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)


class TestActiveGrid:
    def test_quick_default(self):
        assert not large_scale() and not paper_scale()
        config = ScalingConfig.active()
        assert config == ScalingConfig()
        assert max(config.node_counts) <= 500

    def test_paper_env_selects_paper_grid(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAPER_SCALE", "1")
        assert ScalingConfig.active() == ScalingConfig.paper()

    def test_large_env_selects_10k_grid(self, monkeypatch):
        monkeypatch.setenv("REPRO_LARGE_SCALE", "1")
        assert large_scale()
        config = ScalingConfig.active()
        assert config == ScalingConfig.large()
        assert 10_000 in config.node_counts

    def test_large_wins_over_paper(self, monkeypatch):
        monkeypatch.setenv("REPRO_LARGE_SCALE", "1")
        monkeypatch.setenv("REPRO_PAPER_SCALE", "1")
        assert ScalingConfig.active() == ScalingConfig.large()

    @pytest.mark.parametrize("value", ["", "0", "false"])
    def test_falsey_values_stay_quick(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_LARGE_SCALE", value)
        assert not large_scale()

    def test_large_grid_is_one_cheap_cell_shape(self):
        config = ScalingConfig.large()
        assert len(config.seeds) == 1
        assert len(config.protocols) == 1
        assert config.duration_s <= 15.0


class TestLargeFlagPlumbing:
    def test_campaign_cli_has_large_flag(self, monkeypatch):
        from repro.experiments.cli import build_parser
        args = build_parser().parse_args(["scaling", "--large"])
        assert args.large

    def test_profile_cli_has_large_flag(self):
        from repro.experiments.profile_cli import build_parser
        args = build_parser().parse_args(["scaling", "--large"])
        assert args.large


class TestAutoSparseAtScale:
    def test_scaling_cell_above_cutoff_goes_sparse(self):
        """A 1500-node scaling cell's link budget holds only the linked
        pairs, far below what N×N matrices would take."""
        from repro.experiments.common import ScenarioConfig, build_protocol_network

        terrain = terrain_for(1500)
        scenario = ScenarioConfig(n_nodes=1500, width_m=terrain,
                                  height_m=terrain, range_m=250.0, seed=1)
        net = build_protocol_network("counter1", scenario)
        # Four N×N float64 matrices would be 4 * n^2 * 8 bytes.
        assert net.channel.link_budget_bytes() < 4 * 1500 * 1500 * 8 / 10


@pytest.mark.skipif(not os.environ.get("REPRO_LARGE_SCALE"),
                    reason="10k-node cell: set REPRO_LARGE_SCALE=1 "
                           "(repro campaign scaling --large) to run")
def test_ten_thousand_node_cell_completes_sparse():
    from repro.obs.observe import Observability

    obs = Observability()
    result = run_one("counter1", 10_000, 1, ScalingConfig.large(), obs=obs)
    assert result.metrics["generated"] > 0
    family = obs.registry.get("repro_channel_link_budget_bytes")
    peak = next(iter(family.describe()["samples"].values()))
    assert 0 < peak < 200e6  # the acceptance bar: far below dense's ~2.4 GB
