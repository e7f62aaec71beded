"""Tests for the benchmark-regression harness (repro.experiments.bench)."""

import json

import pytest

from repro.experiments import bench
from repro.experiments.cli import main as cli_main


def snapshot(walls: dict) -> dict:
    return {
        "schema": bench.SCHEMA_VERSION,
        "benchmarks": {
            name: {"wall_s": wall, "ops_per_s": 1.0 / wall,
                   "events_per_s": None, "events": 1, "repeats": 1}
            for name, wall in walls.items()
        },
    }


class TestCompare:
    def test_no_regression_within_threshold(self):
        base = snapshot({"a": 0.100})
        current = snapshot({"a": 0.125})
        assert bench.compare(current, base, threshold=0.30) == []

    def test_regression_past_threshold(self):
        base = snapshot({"a": 0.100})
        current = snapshot({"a": 0.140})
        report = bench.compare(current, base, threshold=0.30)
        assert len(report) == 1 and "a:" in report[0]

    def test_speedups_never_flag(self):
        report = bench.compare(snapshot({"a": 0.05}), snapshot({"a": 0.100}), 0.0)
        assert report == []

    def test_new_benchmark_without_baseline_is_ignored(self):
        base = snapshot({"a": 0.1})
        current = snapshot({"a": 0.1, "b": 99.0})
        assert bench.compare(current, base, threshold=0.30) == []

    def test_empty_baseline(self):
        assert bench.compare(snapshot({"a": 0.1}), {}, 0.30) == []


@pytest.fixture
def tiny_benchmarks(monkeypatch):
    """Replace the real suite with instant fakes so CLI tests stay fast."""
    calls = {"n": 0}

    def fake():
        calls["n"] += 1
        return {"wall_s": 0.001, "ops": 10, "events": 10}

    monkeypatch.setattr(bench, "BENCHMARKS", {"fake_loop": (fake, 2, 1)})
    return calls


class TestCollect:
    def test_collect_shape_and_metadata(self, tiny_benchmarks):
        snap = bench.collect(quick=False)
        assert snap["schema"] == bench.SCHEMA_VERSION
        assert snap["machine"]["python"]
        entry = snap["benchmarks"]["fake_loop"]
        assert entry["wall_s"] == pytest.approx(0.001)
        assert entry["ops_per_s"] == pytest.approx(10_000, rel=0.01)
        assert entry["events_per_s"] == pytest.approx(10_000, rel=0.01)
        assert tiny_benchmarks["n"] == 2  # best-of-repeats

    def test_quick_mode_runs_fewer_repeats(self, tiny_benchmarks):
        bench.collect(quick=True)
        assert tiny_benchmarks["n"] == 1


class TestCli:
    def test_writes_snapshot_when_no_baseline(self, tiny_benchmarks, tmp_path):
        out = tmp_path / "BENCH_kernel.json"
        assert bench.main(["--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert "fake_loop" in data["benchmarks"]

    def test_passes_against_equal_baseline(self, tiny_benchmarks, tmp_path):
        out = tmp_path / "BENCH_kernel.json"
        assert bench.main(["--output", str(out)]) == 0
        assert bench.main(["--output", str(out)]) == 0

    def test_fails_on_regression_and_keeps_exit_code(self, tiny_benchmarks, tmp_path):
        out = tmp_path / "BENCH_kernel.json"
        out.write_text(json.dumps(snapshot({"fake_loop": 0.0001})))
        assert bench.main(["--output", str(out), "--threshold", "0.3"]) == 1

    def test_no_compare_skips_regression_check(self, tiny_benchmarks, tmp_path):
        out = tmp_path / "BENCH_kernel.json"
        out.write_text(json.dumps(snapshot({"fake_loop": 0.0001})))
        assert bench.main(["--output", str(out), "--no-compare"]) == 0

    def test_no_write_leaves_snapshot_untouched(self, tiny_benchmarks, tmp_path):
        out = tmp_path / "BENCH_kernel.json"
        payload = json.dumps(snapshot({"fake_loop": 1.0}))
        out.write_text(payload)
        assert bench.main(["--output", str(out), "--no-write"]) == 0
        assert out.read_text() == payload

    def test_explicit_baseline_path(self, tiny_benchmarks, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(snapshot({"fake_loop": 0.0001})))
        out = tmp_path / "out.json"
        assert bench.main(["--output", str(out), "--baseline", str(base)]) == 1

    def test_experiments_cli_dispatches_bench(self, tiny_benchmarks, tmp_path):
        out = tmp_path / "BENCH_kernel.json"
        assert cli_main(["bench", "--output", str(out)]) == 0
        assert out.exists()


class TestBaselineErrors:
    """The compare path fails with a clear message and exit 2 — never a
    traceback — on missing, corrupt or foreign-machine baselines."""

    def test_missing_baseline_with_explicit_threshold(self, tiny_benchmarks,
                                                      tmp_path, capsys):
        out = tmp_path / "nonexistent.json"
        code = bench.main(["--output", str(out), "--threshold", "0.3",
                           "--no-write"])
        assert code == 2
        err = capsys.readouterr().err
        assert "no benchmark baseline" in err and "--no-compare" in err

    def test_missing_baseline_with_explicit_baseline_flag(
            self, tiny_benchmarks, tmp_path):
        assert bench.main(["--baseline", str(tmp_path / "gone.json"),
                           "--output", str(tmp_path / "o.json"),
                           "--no-write"]) == 2

    def test_missing_baseline_without_explicit_compare_writes_fresh(
            self, tiny_benchmarks, tmp_path):
        out = tmp_path / "BENCH_kernel.json"
        assert bench.main(["--output", str(out)]) == 0
        assert out.exists()

    def test_corrupt_baseline(self, tiny_benchmarks, tmp_path, capsys):
        out = tmp_path / "BENCH_kernel.json"
        out.write_text("{definitely not json")
        code = bench.main(["--output", str(out), "--threshold", "0.3",
                           "--no-write"])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_snapshot_json_baseline(self, tiny_benchmarks, tmp_path,
                                        capsys):
        out = tmp_path / "BENCH_kernel.json"
        out.write_text(json.dumps({"something": "else"}))
        assert bench.main(["--output", str(out), "--threshold", "0.3",
                           "--no-write"]) == 2
        assert "not a bench snapshot" in capsys.readouterr().err

    def foreign_snapshot(self) -> dict:
        snap = snapshot({"fake_loop": 1.0})
        snap["machine"] = {"implementation": "OtherPy", "machine": "sparc64",
                          "processor": "weird"}
        return snap

    def test_foreign_fingerprint_rejected(self, tiny_benchmarks, tmp_path,
                                          capsys):
        out = tmp_path / "BENCH_kernel.json"
        out.write_text(json.dumps(self.foreign_snapshot()))
        code = bench.main(["--output", str(out), "--threshold", "0.3",
                           "--no-write"])
        assert code == 2
        err = capsys.readouterr().err
        assert "different machine" in err and "--ignore-fingerprint" in err

    def test_ignore_fingerprint_compares_anyway(self, tiny_benchmarks,
                                                tmp_path):
        out = tmp_path / "BENCH_kernel.json"
        out.write_text(json.dumps(self.foreign_snapshot()))
        # Baseline is slower than the fake, so comparison passes.
        assert bench.main(["--output", str(out), "--threshold", "0.3",
                           "--ignore-fingerprint", "--no-write"]) == 0

    def test_legacy_baseline_without_machine_meta_still_compares(
            self, tiny_benchmarks, tmp_path):
        out = tmp_path / "BENCH_kernel.json"
        out.write_text(json.dumps(snapshot({"fake_loop": 1.0})))
        assert bench.main(["--output", str(out), "--threshold", "0.3",
                           "--no-write"]) == 0

    def test_same_machine_baseline_passes_fingerprint_check(
            self, tiny_benchmarks, tmp_path):
        out = tmp_path / "BENCH_kernel.json"
        assert bench.main(["--output", str(out)]) == 0  # writes machine meta
        assert bench.main(["--output", str(out), "--threshold", "0.3",
                           "--no-write"]) == 0

    def test_fingerprint_ignores_hostname_and_python_patch(self):
        a = {"implementation": "CPython", "machine": "x86_64",
             "processor": "x86_64", "hostname": "runner-1", "python": "3.12.1"}
        b = dict(a, hostname="runner-2", python="3.12.4")
        assert bench.fingerprint(a) == bench.fingerprint(b)


@pytest.mark.slow
def test_real_benchmarks_run_end_to_end(tmp_path):
    """The actual suite produces sane numbers (quick mode, no comparison)."""
    out = tmp_path / "BENCH_kernel.json"
    assert bench.main(["--quick", "--no-compare", "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert set(data["benchmarks"]) == set(bench.BENCHMARKS)
    for entry in data["benchmarks"].values():
        assert entry["wall_s"] > 0
        # Channel-rebuild benchmarks (mobility_tick_2k,
        # mobility_tick_uav60) never drain a simulator, so they report
        # zero events.
        if entry["events"]:
            assert entry["events_per_s"] > 0


def test_observed_fig1_cell_fires_the_bare_cells_events():
    """The observed smoke cell is the bare one plus observation: same
    events, so its wall-time ratio to ``fig1_smoke_cell`` is the cost of
    observing."""
    assert {"fig1_smoke_cell", "fig1_smoke_cell_observed"} <= set(
        bench.BENCHMARKS)
    fn, _repeats, _quick = bench.BENCHMARKS["fig1_smoke_cell_observed"]
    assert fn()["events"] == bench.FIG1_CELL_EVENTS
