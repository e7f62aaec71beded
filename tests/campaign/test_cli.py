"""CLI integration: the campaign subcommand and campaign flags on figs."""

import dataclasses
import json

import pytest

import repro.experiments.cli as cli
from repro.campaign import CampaignSpec
from repro.experiments import registry
from tests.campaign import fakes
from tests.campaign.fakes import FakeConfig


@pytest.fixture(autouse=True)
def _reset_call_log():
    fakes.CALLS.clear()


@pytest.fixture
def fake_spec(monkeypatch):
    spec = CampaignSpec(name="fig1", run_one=fakes.counting_run_one,
                        protocols=("counter1", "ssaf"), xs=(1.0, 2.0),
                        seeds=(1,), config=FakeConfig())
    capable = registry.campaign_capable()
    monkeypatch.setattr(cli, "_campaign_spec",
                        lambda name: spec if name in capable else None)
    return spec


def test_campaign_requires_target(capsys):
    assert cli.main(["campaign"]) == 2
    assert "usage" in capsys.readouterr().err


def test_campaign_rejects_unknown_target(fake_spec, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_campaign_spec", lambda name: None)
    assert cli.main(["campaign", "fig2"]) == 2
    assert "cannot run as a campaign" in capsys.readouterr().err


def test_campaign_end_to_end(fake_spec, tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    campaign_dir = tmp_path / "camp"
    summary_path = tmp_path / "telemetry.json"
    argv = ["campaign", "fig1",
            "--cache-dir", str(cache_dir),
            "--campaign-dir", str(campaign_dir),
            "--summary-json", str(summary_path)]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "campaign summary" in out
    assert "cells: 4/4" in out
    assert (campaign_dir / "summary.json").exists()
    assert not (campaign_dir / "journal.jsonl").exists()
    assert not (campaign_dir / "manifest.json").exists()
    summary = json.loads(summary_path.read_text())
    assert summary["executed"] == 4

    # Second identical invocation: pure cache, 100% hit ratio reported.
    fakes.CALLS.clear()
    assert cli.main(argv) == 0
    assert fakes.CALLS == []
    out = capsys.readouterr().out
    assert "cache hit ratio: 100%" in out


def test_campaign_progress_on_stderr(fake_spec, tmp_path, capsys):
    assert cli.main(["campaign", "fig1",
                     "--campaign-dir", str(tmp_path / "c"),
                     "--no-cache"]) == 0
    err = capsys.readouterr().err
    assert "[4/4]" in err


def test_campaign_quiet_silences_progress(fake_spec, tmp_path, capsys):
    assert cli.main(["campaign", "fig1", "--quiet",
                     "--campaign-dir", str(tmp_path / "c"),
                     "--no-cache"]) == 0
    assert "[4/4]" not in capsys.readouterr().err


def test_fig_command_with_cache_flags(fake_spec, tmp_path, capsys):
    argv = ["fig1", "--cache-dir", str(tmp_path / "cache"),
            "--csv", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 0
    assert (tmp_path / "out.csv").exists()
    fakes.CALLS.clear()
    assert cli.main(argv) == 0
    assert fakes.CALLS == []  # second run served from cache


def test_fig_command_rerun_resumes_from_cache(fake_spec, tmp_path,
                                              monkeypatch):
    argv = ["fig1", "--cache-dir", str(tmp_path / "cache"), "--quiet"]
    killed = dataclasses.replace(fake_spec,
                                 run_one=fakes.InterruptAfter(limit=3))
    monkeypatch.setattr(cli, "_campaign_spec", lambda name: killed)
    assert cli.main(argv) == 130
    monkeypatch.setattr(cli, "_campaign_spec", lambda name: fake_spec)
    assert cli.main(argv) == 0
    assert len(fakes.CALLS) == 1  # only the cell the kill left unsettled


@pytest.mark.parametrize("cache", [True, False])
def test_interrupted_sweep_says_whether_a_rerun_resumes(fake_spec, tmp_path,
                                                        monkeypatch, capsys,
                                                        cache):
    cache_dir = str(tmp_path / "cache")
    argv = ["fig1", "--cache-dir", cache_dir, "--quiet"]
    if not cache:
        argv.append("--no-cache")
    killed = dataclasses.replace(fake_spec,
                                 run_one=fakes.InterruptAfter(limit=1))
    monkeypatch.setattr(cli, "_campaign_spec", lambda name: killed)
    assert cli.main(argv) == 130
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if cache:
        assert err == ("interrupted: re-run the same command to resume "
                       f"from {cache_dir}\n")
    else:
        assert err == "interrupted: no cache was kept, so a re-run starts over\n"


@pytest.fixture
def faults_spec(monkeypatch):
    spec = CampaignSpec(name="fig1", run_one=fakes.faults_run_one,
                        protocols=("counter1", "ssaf"), xs=(1.0, 2.0),
                        seeds=(1,), config=FakeConfig())
    monkeypatch.setattr(cli, "_campaign_spec",
                        lambda name: spec if name == "fig1" else None)
    return spec


@pytest.fixture
def plan_path(tmp_path):
    from repro.faults import FaultPlan, PacketCorruption
    path = tmp_path / "plan.json"
    FaultPlan(name="smoke-plan",
              faults=(PacketCorruption(probability=0.5),)).save(path)
    return str(path)


def test_campaign_faults_axis(faults_spec, plan_path, tmp_path):
    assert cli.main(["campaign", "fig1", "--faults", plan_path, "--quiet",
                     "--campaign-dir", str(tmp_path / "c"),
                     "--no-cache"]) == 0
    assert fakes.CALLS
    assert all(call[3] == "smoke-plan" for call in fakes.CALLS)


def test_fig_command_faults_routes_through_campaign(faults_spec, plan_path):
    assert cli.main(["fig1", "--faults", plan_path, "--no-cache"]) == 0
    assert fakes.CALLS
    assert all(call[3] == "smoke-plan" for call in fakes.CALLS)


def test_faulted_cells_get_distinct_cache_keys(faults_spec, plan_path,
                                               tmp_path):
    cache = str(tmp_path / "cache")
    assert cli.main(["fig1", "--cache-dir", cache]) == 0
    baseline = [c for c in fakes.CALLS]
    assert all(call[3] is None for call in baseline)
    fakes.CALLS.clear()
    # Same cache, now with a plan: every cell must miss and re-execute.
    assert cli.main(["fig1", "--cache-dir", cache,
                     "--faults", plan_path]) == 0
    assert len(fakes.CALLS) == len(baseline)
    assert all(call[3] == "smoke-plan" for call in fakes.CALLS)


@pytest.fixture
def failing_spec(monkeypatch):
    spec = CampaignSpec(name="fig1", run_one=fakes.failing_run_one,
                        protocols=("bad", "good"), xs=(1.0, 2.0),
                        seeds=(1,), config=FakeConfig())
    monkeypatch.setattr(cli, "_campaign_spec",
                        lambda name: spec if name == "fig1" else None)
    return spec


@pytest.mark.parametrize("argv", [
    ["fig1", "--no-cache"],
    ["campaign", "fig1", "--no-cache"],
], ids=["fig", "campaign"])
def test_quarantine_exits_one_with_a_report(failing_spec, argv, tmp_path,
                                            monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the campaign form writes under ./campaigns
    assert cli.main(argv + ["--retries", "0", "--quiet"]) == 1
    captured = capsys.readouterr()
    assert "campaign summary" in captured.out
    assert "cells: 4/4 (executed 3," in captured.out
    assert "QUARANTINED bad/x=1/seed=1" in captured.err
    # The cells that settled still render.
    assert "=== fig1: avg_delay_s ===" in captured.out
