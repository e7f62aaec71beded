"""Tests for the ``repro obs`` CLI (summary + timeline export)."""

import json

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.experiments import cli, obs_cli
from repro.experiments.registry import campaign_capable
from repro.net.packet import PacketKind
from repro.obs.ledger import DropReason, PacketStage
from tests.campaign import fakes
from tests.campaign.fakes import FakeConfig


def fake_run_one(protocol, x, seed, config, obs=None, **extra):
    """A deterministic 'cell': a few lifecycle events on the obs bundle."""
    assert obs is not None
    uid = (PacketKind.DATA, 0, seed)
    obs.on_originate(0.0, 0, uid)
    obs.on_tx(0.001, 0, uid, "data", 0.0005)
    obs.on_rx(0.0015, 1, uid, -60.0)
    obs.on_drop(0.002, 1, "net", DropReason.DUPLICATE, uid)
    obs.on_drop(0.003, 2, "mac", DropReason.QUEUE_OVERFLOW, uid)
    obs.on_deliver(0.004, 3, uid, delay_s=0.004, hops=float(x))
    obs.on_election_win(0.004, 2, uid, protocol, backoff_s=0.002)
    return {"protocol": protocol, "x": x, "seed": seed}


@pytest.fixture
def fake_spec(monkeypatch):
    spec = CampaignSpec(name="fakeexp", run_one=fake_run_one,
                        protocols=("ssaf", "counter1"), xs=(1.0, 2.0),
                        seeds=(1, 2), config=object())
    monkeypatch.setattr(cli, "_campaign_spec",
                        lambda name: spec if name == "fakeexp" else None)
    return spec


class TestSummary:
    def test_prints_report_with_drop_reasons(self, fake_spec, capsys):
        assert obs_cli.main(["summary", "fakeexp"]) == 0
        out = capsys.readouterr().out
        assert "fakeexp/ssaf/x=1/seed=1" in out
        assert "duplicate" in out and "queue_overflow" in out
        assert "drops: 2 total" in out

    def test_json_export_sums_reasons_to_total(self, fake_spec, tmp_path,
                                               capsys):
        path = tmp_path / "summary.json"
        assert obs_cli.main(["summary", "fakeexp", "--json", str(path)]) == 0
        report = json.loads(path.read_text())
        assert sum(report["drops_by_reason"].values()) == \
            report["total_drops"] == 2
        assert report["tx_by_kind"] == {"data": 1.0}
        assert report["election_wins"]["ssaf"]["count"] == 1

    def test_cell_selection_flags(self, fake_spec, capsys):
        assert obs_cli.main(["summary", "fakeexp", "--protocol", "counter1",
                             "--x", "2.0", "--seed", "2"]) == 0
        assert "fakeexp/counter1/x=2/seed=2" in capsys.readouterr().out


class TestExport:
    def test_writes_chrome_and_jsonl(self, fake_spec, tmp_path, capsys):
        chrome = tmp_path / "timeline.json"
        jsonl = tmp_path / "timeline.jsonl"
        assert obs_cli.main(["export", "fakeexp", "--chrome", str(chrome),
                             "--jsonl", str(jsonl)]) == 0
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]
        assert {e["ph"] for e in doc["traceEvents"]} <= {"X", "i", "M"}
        rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert any(r["stage"] == PacketStage.DELIVER.value for r in rows)

    def test_export_without_paths_errors(self, fake_spec, capsys):
        assert obs_cli.main(["export", "fakeexp"]) == 2
        assert "--chrome" in capsys.readouterr().err


class TestCampaignSummary:
    def test_renders_summary_json_of_a_campaign(self, tmp_path, capsys):
        run_campaign(fakes.counting_run_one, runner_name="fake",
                     protocols=("alpha", "beta"), xs=(1.0, 2.0), seeds=(1,),
                     config=FakeConfig(), campaign_dir=tmp_path / "camp")
        json_out = tmp_path / "summary.json"
        assert obs_cli.main(["summary", "--campaign-dir",
                             str(tmp_path / "camp"),
                             "--json", str(json_out)]) == 0
        out = capsys.readouterr().out
        assert "campaign: fake" in out
        assert "cells: 4/4 (executed 4, cache hits 0, quarantined 0)" in out
        assert "cell wall: mean" in out and "(4 executed)" in out
        assert json.loads(json_out.read_text())["executed"] == 4

    def test_empty_campaign_dir_errors(self, tmp_path, capsys):
        rc = obs_cli.main(["summary", "--campaign-dir",
                           str(tmp_path / "empty")])
        assert rc == 2
        assert "no summary.json" in capsys.readouterr().err


class TestErrors:
    def test_unknown_experiment(self, fake_spec, capsys):
        assert obs_cli.main(["summary", "nosuch"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_experiment_lists_every_campaign_experiment(self, capsys):
        assert obs_cli.main(["summary", "nosuch"]) == 2
        err = capsys.readouterr().err
        choices = err.split("choose from:")[1].strip(" )\n").split()
        assert choices == campaign_capable()
        assert "uav" in choices

    def test_off_grid_x(self, fake_spec, capsys):
        assert obs_cli.main(["summary", "fakeexp", "--x", "99"]) == 2
        assert "not on the grid" in capsys.readouterr().err

    def test_off_grid_protocol(self, fake_spec, capsys):
        assert obs_cli.main(["summary", "fakeexp", "--protocol", "nope"]) == 2
        assert "not on the grid" in capsys.readouterr().err


class TestDispatch:
    def test_experiments_cli_routes_obs(self, fake_spec, capsys):
        assert cli.main(["obs", "summary", "fakeexp"]) == 0
        assert "observed cell" in capsys.readouterr().out
