"""Content addressing: stability, sensitivity, canonical forms."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.campaign.fingerprint import canonicalize, cell_key, runner_name_of
from tests.campaign.fakes import FakeConfig, make_summary


class TestCanonicalize:
    def test_scalars_pass_through(self):
        assert canonicalize(None) is None
        assert canonicalize(True) is True
        assert canonicalize(7) == 7
        assert canonicalize("x") == "x"

    def test_floats_exact(self):
        assert canonicalize(0.1) == {"__float__": "0.1"}
        assert canonicalize(0.1) != canonicalize(0.1 + 1e-12)

    def test_dataclass_tagged_with_type(self):
        a = canonicalize(FakeConfig(scale=1.0))
        assert a["__dataclass__"] == "FakeConfig"
        assert "scale" in a["fields"]

    def test_ndarray_and_numpy_scalars(self):
        arr = canonicalize(np.array([1.0, 2.0]))
        assert "__ndarray__" in arr
        assert canonicalize(np.int64(3)) == 3

    def test_mapping_order_independent(self):
        assert canonicalize({"a": 1, "b": 2}) == canonicalize({"b": 2, "a": 1})

    def test_unknown_objects_never_crash(self):
        class Weird:
            def __repr__(self):
                return "Weird()"
        assert canonicalize(Weird()) == {"__repr__": "Weird()"}


class TestCellKey:
    def test_stable_across_calls(self):
        config = FakeConfig()
        k1 = cell_key("fig1", "ssaf", 1.0, 1, config)
        k2 = cell_key("fig1", "ssaf", 1.0, 1, config)
        assert k1 == k2
        assert len(k1) == 64

    @pytest.mark.parametrize("change", [
        dict(runner="fig3"),
        dict(protocol="counter1"),
        dict(x=2.0),
        dict(seed=2),
        dict(config=FakeConfig(scale=2.0)),
        dict(extra={"failure_fraction": 0.05}),
    ])
    def test_any_coordinate_changes_the_key(self, change):
        base = dict(runner="fig1", protocol="ssaf", x=1.0, seed=1,
                    config=FakeConfig(), extra=None)
        varied = {**base, **change}
        k_base = cell_key(base["runner"], base["protocol"], base["x"],
                          base["seed"], base["config"], base["extra"])
        k_varied = cell_key(varied["runner"], varied["protocol"], varied["x"],
                            varied["seed"], varied["config"], varied["extra"])
        assert k_base != k_varied

    def test_runner_name_of(self):
        assert runner_name_of(make_summary).endswith("fakes.make_summary")


class TestModelFingerprint:
    """The key follows the model's source: a copy of the package is edited
    and each key is computed in a fresh interpreter importing that copy."""

    @pytest.fixture
    def package(self, tmp_path):
        root = tmp_path / "src"
        shutil.copytree(Path(repro.__file__).parent, root / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        return root

    @staticmethod
    def key_of(src_root):
        code = ("import repro; "
                "from repro.campaign.fingerprint import cell_key; "
                "print(repro.__file__); "
                "print(cell_key('fig1', 'ssaf', 1.0, 1, None))")
        env = {**os.environ, "PYTHONPATH": str(src_root)}
        origin, key = subprocess.run(
            [sys.executable, "-c", code], check=True, env=env,
            capture_output=True, text=True).stdout.split()
        assert Path(origin).is_relative_to(src_root)  # the copy, not ours
        return key

    @staticmethod
    def touch(path):
        path.write_text(path.read_text() + "\n# edited\n")

    def test_model_edit_changes_the_key(self, package):
        before = self.key_of(package)
        self.touch(package / "repro" / "phy" / "radio.py")
        assert self.key_of(package) != before

    def test_reporting_edit_keeps_the_key(self, package):
        before = self.key_of(package)
        self.touch(package / "repro" / "obs" / "summary.py")
        assert self.key_of(package) == before
