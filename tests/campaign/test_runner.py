"""Campaign orchestration: the PR's acceptance criteria live here.

* crash-resume — a campaign killed after N cells and re-run on the same
  result cache executes only the remaining cells and produces results
  identical to an uninterrupted run;
* cache-hit — re-running an identical sweep performs zero executions and
  reports a 100 % cache-hit ratio; config/seed changes invalidate exactly
  the affected cells;
* quarantine — a persistently failing cell is retried, then reported in the
  summary without failing the other cells;
* worker death — a pool worker killed mid-cell costs a rerun, not a cell:
  the cache still holds every result exactly once.
"""

import json

import pytest

from repro.campaign import ResultCache, run_campaign
from repro.stats.series import METRIC_FIELDS
from tests.campaign import fakes
from tests.campaign.fakes import FakeConfig, InterruptAfter, make_summary

PROTOCOLS = ("alpha", "beta")
XS = (1.0, 2.0)
SEEDS = (1, 2)
GRID_SIZE = len(PROTOCOLS) * len(XS) * len(SEEDS)


@pytest.fixture(autouse=True)
def _reset_call_log():
    fakes.CALLS.clear()


def grid_kwargs(config=FakeConfig(), **over):
    kwargs = dict(runner_name="fake", protocols=PROTOCOLS, xs=XS,
                  seeds=SEEDS, config=config)
    kwargs.update(over)
    return kwargs


def assert_identical(results_a, results_b):
    assert set(results_a) == set(results_b)
    for protocol in results_a:
        a, b = results_a[protocol], results_b[protocol]
        assert a.xs == b.xs
        for x in a.xs:
            for metric in METRIC_FIELDS:
                assert a.metric(x, metric) == b.metric(x, metric)


def test_plain_campaign_matches_direct_loop():
    outcome = run_campaign(fakes.counting_run_one, **grid_kwargs())
    assert outcome.summary["executed"] == GRID_SIZE
    assert not outcome.quarantined
    for protocol in PROTOCOLS:
        series = outcome.results[protocol]
        assert series.xs == list(XS)
        for x in XS:
            stats = series.metric(x, "avg_delay_s")
            assert stats.n == len(SEEDS)
            expected = [make_summary(protocol, x, s, FakeConfig()).avg_delay_s
                        for s in SEEDS]
            assert stats.mean == sum(expected) / len(expected)


class TestCacheHits:
    def test_identical_rerun_executes_nothing(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = run_campaign(fakes.counting_run_one,
                             **grid_kwargs(cache_dir=cache_dir))
        assert first.summary["executed"] == GRID_SIZE
        fakes.CALLS.clear()
        second = run_campaign(fakes.counting_run_one,
                              **grid_kwargs(cache_dir=cache_dir))
        assert fakes.CALLS == []                      # zero cell executions
        assert second.summary["executed"] == 0
        assert second.summary["cache_hits"] == GRID_SIZE
        assert second.summary["cache_hit_ratio"] == 1.0
        assert_identical(first.results, second.results)

    def test_config_change_invalidates_everything(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_campaign(fakes.counting_run_one, **grid_kwargs(cache_dir=cache_dir))
        fakes.CALLS.clear()
        changed = run_campaign(
            fakes.counting_run_one,
            **grid_kwargs(config=FakeConfig(scale=2.0), cache_dir=cache_dir))
        assert len(fakes.CALLS) == GRID_SIZE          # all cells re-ran
        assert changed.summary["cache_hits"] == 0

    def test_new_seed_invalidates_only_its_cells(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_campaign(fakes.counting_run_one, **grid_kwargs(cache_dir=cache_dir))
        fakes.CALLS.clear()
        grown = run_campaign(fakes.counting_run_one,
                             **grid_kwargs(seeds=(1, 2, 3),
                                           cache_dir=cache_dir))
        # Only the seed-3 cells are new: protocols × xs of them.
        assert sorted(fakes.CALLS) == sorted(
            (p, x, 3) for p in PROTOCOLS for x in XS)
        assert grown.summary["cache_hits"] == GRID_SIZE
        assert grown.summary["executed"] == len(PROTOCOLS) * len(XS)

    def test_extra_kwargs_part_of_identity(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_campaign(fakes.counting_run_one, **grid_kwargs(cache_dir=cache_dir))
        fakes.CALLS.clear()
        run_campaign(fakes.counting_run_one,
                     **grid_kwargs(cache_dir=cache_dir),
                     extra_kwargs={})
        assert fakes.CALLS == []  # empty extras hash like no extras


class TestCrashResume:
    def test_interrupted_campaign_resumes_missing_cells_only(self, tmp_path):
        cache_dir = tmp_path / "cache"
        baseline = run_campaign(fakes.counting_run_one, **grid_kwargs())

        interrupted = InterruptAfter(limit=3)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(interrupted, **grid_kwargs(cache_dir=cache_dir))

        fakes.CALLS.clear()
        resumed = run_campaign(fakes.counting_run_one,
                               **grid_kwargs(cache_dir=cache_dir))
        # Only the cells the kill left unsettled re-execute...
        assert len(fakes.CALLS) == GRID_SIZE - 3
        assert resumed.summary["cache_hits"] == 3
        assert resumed.summary["executed"] == GRID_SIZE - 3
        # ...and the reassembled series are identical to an uninterrupted run.
        assert_identical(baseline.results, resumed.results)

    def test_resume_of_complete_campaign_executes_nothing(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = run_campaign(fakes.counting_run_one,
                             **grid_kwargs(cache_dir=cache_dir))
        fakes.CALLS.clear()
        again = run_campaign(fakes.counting_run_one,
                             **grid_kwargs(cache_dir=cache_dir))
        assert fakes.CALLS == []
        assert again.summary["cache_hits"] == GRID_SIZE
        assert_identical(first.results, again.results)

    def test_uncached_rerun_starts_over(self, tmp_path):
        campaign_dir = tmp_path / "camp"
        run_campaign(fakes.counting_run_one,
                     **grid_kwargs(campaign_dir=campaign_dir))
        fakes.CALLS.clear()
        rerun = run_campaign(fakes.counting_run_one,
                             **grid_kwargs(campaign_dir=campaign_dir))
        assert len(fakes.CALLS) == GRID_SIZE
        assert rerun.summary["cache_hits"] == 0


    def test_partly_warm_cache_runs_only_cold_cells(self, tmp_path):
        """A campaign over a cache warmed for one protocol runs the rest."""
        cache_dir, campaign_dir = tmp_path / "cache", tmp_path / "camp"
        run_campaign(fakes.counting_run_one,
                     **grid_kwargs(protocols=("alpha",), cache_dir=cache_dir))
        fakes.CALLS.clear()
        outcome = run_campaign(fakes.counting_run_one,
                               **grid_kwargs(cache_dir=cache_dir,
                                             campaign_dir=campaign_dir))
        assert outcome.summary["cache_hits"] == len(XS) * len(SEEDS)
        assert outcome.summary["executed"] == len(XS) * len(SEEDS)
        assert all(p == "beta" for p, _x, _s in fakes.CALLS)
        written = json.loads((campaign_dir / "summary.json").read_text())
        assert written["cache_hits"] == outcome.summary["cache_hits"]


class TestQuarantine:
    def test_failing_cell_reported_not_fatal(self, tmp_path):
        outcome = run_campaign(
            fakes.failing_run_one,
            **grid_kwargs(protocols=("bad", "good"), max_retries=1,
                          backoff_s=0.001))
        # (bad, 1.0, *) cells fail forever: 2 seeds quarantined.
        assert len(outcome.quarantined) == 2
        assert outcome.summary["quarantined"] == 2
        assert outcome.summary["retries"] == 2
        reported = outcome.summary["quarantined_cells"]
        assert all(c["protocol"] == "bad" and c["x"] == 1.0 for c in reported)
        assert all(c["attempts"] == 2 for c in reported)
        assert all("cursed" in c["error"] for c in reported)
        # The rest of the grid settled: bad@2.0 plus all good cells.
        assert outcome.results["bad"].xs == [2.0]
        assert outcome.results["good"].xs == list(XS)

    def test_quarantined_cells_retry_on_resume(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_campaign(fakes.failing_run_one,
                     **grid_kwargs(protocols=("bad", "good"), max_retries=0,
                                   cache_dir=cache_dir))
        fakes.CALLS.clear()
        # Same grid, now with a runner that succeeds everywhere: the cache
        # never stores failures, so only the quarantined cells re-run.
        resumed = run_campaign(fakes.counting_run_one,
                               **grid_kwargs(protocols=("bad", "good"),
                                             cache_dir=cache_dir))
        assert sorted(fakes.CALLS) == sorted(
            ("bad", 1.0, s) for s in SEEDS)
        assert not resumed.quarantined
        assert resumed.results["bad"].xs == list(XS)


class TestTelemetry:
    def test_progress_events_cover_every_cell(self):
        events = []
        run_campaign(fakes.counting_run_one, **grid_kwargs(),
                     progress=events.append)
        assert len(events) == GRID_SIZE
        assert events[-1].completed == GRID_SIZE
        assert events[-1].total == GRID_SIZE
        assert all(e.last_source == "run" for e in events)
        assert events[0].last_cell == "alpha/x=1/seed=1"
        assert events[-1].eta_s == 0.0

    def test_summary_shape(self):
        outcome = run_campaign(fakes.counting_run_one, **grid_kwargs())
        summary = outcome.summary
        for field in ("total_cells", "completed", "executed", "cache_hits",
                      "retries", "quarantined",
                      "elapsed_s", "cells_per_sec", "cache_hit_ratio",
                      "cell_wall_s", "runner", "quarantined_cells"):
            assert field in summary
        assert summary["runner"] == "fake"
        assert summary["cell_wall_s"]["total"] >= 0.0

    def test_runner_persists_summary_json(self, tmp_path):
        outcome = run_campaign(fakes.counting_run_one,
                               **grid_kwargs(campaign_dir=tmp_path))
        persisted = json.loads((tmp_path / "summary.json").read_text())
        assert persisted["runner"] == "fake"
        assert persisted["completed"] == outcome.summary["completed"] \
            == GRID_SIZE
        assert sorted(p.name for p in tmp_path.iterdir()) == ["summary.json"]

    def test_parallel_workers_bit_identical(self):
        serial = run_campaign(fakes.counting_run_one, **grid_kwargs())
        parallel = run_campaign(fakes.counting_run_one,
                                **grid_kwargs(workers=2))
        assert_identical(serial.results, parallel.results)


class TestWorkerDeath:
    def test_killed_worker_settles_every_cell_once(self, tmp_path):
        config = FakeConfig(flag_dir=str(tmp_path))
        kwargs = grid_kwargs(config=config,
                             protocols=("dies", "ok"), workers=2,
                             campaign_dir=tmp_path / "campaign",
                             cache_dir=tmp_path / "cache")
        first = run_campaign(fakes.dying_run_one, **kwargs)
        assert not first.quarantined
        assert first.summary["executed"] == GRID_SIZE
        # Each dying cell lost its worker once, then ran again.
        assert all(r.attempts >= 2 for r in first.records.values()
                   if r.protocol == "dies")

        assert len(first.records) == GRID_SIZE
        assert all(r.status == "done" for r in first.records.values())
        cache = ResultCache(tmp_path / "cache")
        assert cache.entry_count() == GRID_SIZE  # one each, none twice
        assert all(cache.get(key) is not None for key in first.records)

        replay = run_campaign(fakes.dying_run_one, **kwargs)
        assert replay.summary["executed"] == 0
        assert replay.summary["cache_hit_ratio"] == 1.0
        assert_identical(first.results, replay.results)
