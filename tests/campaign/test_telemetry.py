"""Campaign telemetry: wall-time distribution stats in the summary."""

from __future__ import annotations

import pytest

from repro.campaign.telemetry import CampaignTelemetry


def telemetry_with_walls(walls):
    telemetry = CampaignTelemetry(total=len(walls))
    for wall in walls:
        telemetry.record("run", wall)
    return telemetry


class TestCellWallStats:
    def test_empty_campaign_all_zero(self):
        stats = CampaignTelemetry(total=0).summary()["cell_wall_s"]
        assert stats == {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                         "p50": 0.0, "p90": 0.0, "p99": 0.0, "total": 0.0}

    def test_count_mean_min_max_total(self):
        stats = telemetry_with_walls([3.0, 1.0, 2.0]).summary()["cell_wall_s"]
        assert stats["count"] == 3
        assert stats["mean"] == pytest.approx(2.0)
        assert stats["min"] == 1.0 and stats["max"] == 3.0
        assert stats["total"] == pytest.approx(6.0)

    def test_percentiles_on_known_distribution(self):
        # 100 cells with walls 0.01..1.00 — nearest-rank percentiles land
        # exactly on the expected order statistics.
        walls = [i / 100 for i in range(1, 101)]
        stats = telemetry_with_walls(walls).summary()["cell_wall_s"]
        assert stats["p50"] == pytest.approx(0.51)
        assert stats["p90"] == pytest.approx(0.91)
        assert stats["p99"] == pytest.approx(1.00)

    def test_percentiles_ordered(self):
        walls = [0.1, 9.0, 0.2, 0.3, 4.0, 0.1, 0.2]
        stats = telemetry_with_walls(walls).summary()["cell_wall_s"]
        assert stats["min"] <= stats["p50"] <= stats["p90"] \
            <= stats["p99"] <= stats["max"]

    def test_single_cell_percentiles_collapse(self):
        stats = telemetry_with_walls([0.7]).summary()["cell_wall_s"]
        assert stats["p50"] == stats["p90"] == stats["p99"] == 0.7

    def test_p50_matches_historical_median(self):
        # The old summary reported walls[len // 2]; p50 must not move.
        walls = [5.0, 1.0, 3.0, 2.0, 4.0]
        stats = telemetry_with_walls(walls).summary()["cell_wall_s"]
        assert stats["p50"] == sorted(walls)[len(walls) // 2]

    def test_only_executed_cells_counted(self):
        telemetry = CampaignTelemetry(total=4)
        telemetry.record("run", 2.0)
        telemetry.record("cache")
        telemetry.record("quarantined")
        stats = telemetry.summary()["cell_wall_s"]
        assert stats["count"] == 1 and stats["total"] == 2.0
