"""Self-tests of the benchmark; not part of the tier-1 suite::

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import simbench

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--smoke", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr[-3000:]
    assert result["attempted"] >= 1

    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == expected
    table = {line.split()[0]: line.split()[-1] for line in lines[:-1]
             if len(line.split()) == 3}
    for name, unit in expected.items():
        assert table.get(name) == unit, f"{name} not printed with {unit}"


def test_every_module_maps_to_exactly_one_layer():
    repro = ROOT / "src" / "repro"
    modules = sorted(repro.rglob("*.py"))
    assert modules
    for path in modules:
        rel = path.relative_to(repro).as_posix()
        assert len(layers.matching_groups(rel)) == 1, rel
        assert layers.group_of(str(path), str(repro)) != layers.OTHER, rel


def test_count_mismatch_between_passes_trips_the_determinism_check():
    row = {"cell": "ssaf/x=1/seed=1", "events": 158582, "tx": 1988,
           "delivered": 150, "generated": 150}
    assert simbench.check_determinism([[row], [dict(row)], [dict(row)]]) == []

    faked = dict(row, events=row["events"] + 1)
    problems = simbench.check_determinism([[row], [dict(row)], [faked]])
    assert len(problems) == 1
    assert "ssaf/x=1/seed=1" in problems[0]
