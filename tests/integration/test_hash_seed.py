"""Results do not depend on the interpreter's hash seed.

Campaign pool workers and the serve daemon run cells in processes of their
own, each with its own ``PYTHONHASHSEED``.  One observed cell (the smallest
fig1 cell of ``tests/obs/test_obs_pins.py``) runs under two seeds: the
:class:`~repro.experiments.result.ExperimentResult` and the bytes of the
:func:`~repro.obs.timeline.write_jsonl` ledger export must both agree.
"""

import hashlib
import os
import pathlib
import pickle
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

CELL = """
import pickle, sys
from repro.experiments.cli import _campaign_spec
from repro.obs.observe import Observability
from repro.obs.timeline import write_jsonl

out = sys.argv[1]
spec = _campaign_spec("fig1")
obs = Observability()
result = spec.run_one("ssaf", 8.0, 1, spec.config, obs=obs, **spec.extra_kwargs)
write_jsonl(obs.ledger, out + ".jsonl")
with open(out + ".pkl", "wb") as fh:
    pickle.dump(result, fh)
"""


def run_cell(hash_seed: int, tmp_path: pathlib.Path):
    out = tmp_path / f"hashseed{hash_seed}"
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed),
           "PYTHONPATH": os.pathsep.join(
               [str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", CELL, str(out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(f"{out}.pkl", "rb") as fh:
        result = pickle.load(fh)
    with open(f"{out}.jsonl", "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return result, digest


def test_observed_cell_is_independent_of_the_hash_seed(tmp_path):
    result_0, jsonl_0 = run_cell(0, tmp_path)
    result_1, jsonl_1 = run_cell(1, tmp_path)
    assert result_0 == result_1
    assert result_0.metrics["generated"] > 0
    assert jsonl_0 == jsonl_1
