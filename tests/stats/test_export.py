"""Tests for CSV/JSON export of sweep results."""

import csv
import json
import os

import pytest

from repro.stats.export import (
    read_csv_rows,
    read_json_rows,
    series_to_rows,
    to_json,
    write_campaign_summary,
    write_csv,
    write_json,
)
from repro.stats.metrics import MetricsSummary
from repro.stats.series import SweepSeries


@pytest.fixture
def results():
    series = SweepSeries("routeless")
    for x, delay in ((1.0, 0.1), (1.0, 0.3), (2.0, 0.2)):
        series.add(x, MetricsSummary(generated=10, delivered=10,
                                     delivery_ratio=1.0, avg_delay_s=delay,
                                     avg_hops=3.0, mac_packets=100))
    return {"routeless": series}


def test_rows_flatten_every_point_and_metric(results):
    rows = series_to_rows(results)
    # 2 x-values × 4 metrics
    assert len(rows) == 8
    delays = [r for r in rows if r["metric"] == "avg_delay_s" and r["x"] == 1.0]
    assert delays[0]["mean"] == pytest.approx(0.2)
    assert delays[0]["n"] == 2


def test_csv_roundtrip(results, tmp_path):
    path = tmp_path / "out.csv"
    write_csv(results, str(path))
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 8
    assert rows[0]["protocol"] == "routeless"
    assert {"protocol", "x", "metric", "mean", "stderr", "n"} == set(rows[0])


def test_json_structure(results):
    payload = json.loads(to_json(results))
    assert payload["routeless"]["xs"] == [1.0, 2.0]
    points = payload["routeless"]["metrics"]["avg_delay_s"]
    assert points[0]["x"] == 1.0
    assert points[0]["mean"] == pytest.approx(0.2)


def test_json_file(results, tmp_path):
    path = tmp_path / "out.json"
    write_json(results, str(path))
    assert json.loads(path.read_text())["routeless"]["xs"] == [1.0, 2.0]


def _row_key(row):
    return (row["protocol"], row["x"], row["metric"])


class TestRoundTrips:
    """CSV and JSON exports parse back to the exact source rows."""

    def test_csv_roundtrip_exact(self, results, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(results, path)
        assert sorted(read_csv_rows(path), key=_row_key) == \
            sorted(series_to_rows(results), key=_row_key)

    def test_json_roundtrip_exact(self, results, tmp_path):
        path = tmp_path / "out.json"
        write_json(results, path)
        assert sorted(read_json_rows(path), key=_row_key) == \
            sorted(series_to_rows(results), key=_row_key)


class TestPathHandling:
    """Writers accept os.PathLike and create missing parent directories."""

    def test_write_csv_pathlike_nested(self, results, tmp_path):
        path = tmp_path / "a" / "b" / "out.csv"
        write_csv(results, path)
        assert len(read_csv_rows(path)) == 8

    def test_write_json_pathlike_nested(self, results, tmp_path):
        path = tmp_path / "deep" / "out.json"
        write_json(results, path)
        assert json.loads(path.read_text())["routeless"]["xs"] == [1.0, 2.0]

    def test_write_campaign_summary_nested(self, tmp_path):
        path = tmp_path / "runs" / "summary.json"
        write_campaign_summary({"executed": 3, "cache_hits": 1}, path)
        assert json.loads(path.read_text()) == {"executed": 3, "cache_hits": 1}

    def test_campaign_summary_roundtrip(self, tmp_path):
        path = tmp_path / "summary.json"
        assert not path.exists()
        write_campaign_summary({"completed": 4}, path)
        write_campaign_summary({"completed": 8,
                                "cell_wall_s": {"p50": 0.5}}, path)
        assert json.loads(path.read_text()) == {"completed": 8,
                                                "cell_wall_s": {"p50": 0.5}}

    def test_unjsonable_summary_values_are_stringified(self, tmp_path):
        path = tmp_path / "summary.json"
        write_campaign_summary({"path": tmp_path}, path)  # Path: not JSON
        assert json.loads(path.read_text()) == {"path": str(tmp_path)}

    def test_summary_publish_is_atomic(self, tmp_path, monkeypatch):
        path = tmp_path / "summary.json"
        write_campaign_summary({"completed": 1}, path)

        def failing_replace(src, dst):
            raise OSError("powercut")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            write_campaign_summary({"completed": 2}, path)
        monkeypatch.undo()
        # The previous summary survives intact; no temp debris remains.
        assert json.loads(path.read_text()) == {"completed": 1}
        assert list(tmp_path.glob("*.tmp")) == []


class TestCli:
    def test_list(self, capsys):
        from repro.experiments.cli import main
        assert main(["list"]) == 0
        assert "fig1" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        from repro.experiments.cli import main
        with pytest.raises(SystemExit):
            main(["fig9"])

    def test_tiny_sweep_with_exports(self, tmp_path, capsys, monkeypatch):
        # Patch fig1 to a minimal configuration so the CLI path is exercised
        # end-to-end in seconds.
        import dataclasses

        import repro.experiments.cli as cli
        from repro.experiments import registry
        from repro.experiments.fig1_ssaf import Fig1Config, campaign_spec

        tiny = Fig1Config(n_nodes=25, terrain_m=500.0, n_connections=2,
                          intervals_s=(2.0,), duration_s=5.0, seeds=(1,))
        real_get = registry.get
        tiny_fig1 = dataclasses.replace(real_get("fig1"),
                                        spec=lambda: campaign_spec(tiny))
        monkeypatch.setattr(
            registry, "get",
            lambda name: tiny_fig1 if name == "fig1" else real_get(name))

        csv_path = tmp_path / "fig1.csv"
        json_path = tmp_path / "fig1.json"
        assert cli.main(["fig1", "--csv", str(csv_path),
                         "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "avg_delay_s" in out
        assert csv_path.exists() and json_path.exists()
        with open(csv_path) as handle:
            assert len(list(csv.DictReader(handle))) == 8  # 2 protos × 1 x × 4 metrics
