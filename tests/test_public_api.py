"""The public surface: ``repro.api`` is the only one, and every name it
promises resolves.

A stale entry in ``__all__`` (a re-export whose module was deleted or
renamed) only fails on ``from repro.api import *`` or on first use, so
check it explicitly.  The package module itself exports nothing and must
stay import-free: ``import repro.sim.engine`` should not pay for the
whole stack, nor ``python -m repro.experiments`` before it parses its
arguments.
"""

import importlib
import os
import subprocess
import sys

import pytest

#: Names under the compatibility promise; they may gain company, never leave.
PROMISED = frozenset("""
    ActiveNodeTable Aodv AodvConfig Arena BackoffInput BackoffPolicy
    BlindFlooding CampaignOutcome CampaignSpec Channel ClockSkew
    Counter1Flooding CsmaMac Dsdv Dsr DutyCycleOutage ElectionConfig
    ElectionNode EnergyDepletion ExperimentResult FaultController FaultPlan
    FloodingConfig FreeSpace FunctionBackoff GaussMarkov3D GaussMarkovConfig
    GradientRouting HopCountBackoff InvariantViolation LinkDegradation
    LogDistance MacConfig MetricsCollector MetricsSummary MobilityConfig
    MutexConfig Network NodeCrash Packet PacketCorruption PacketKind
    Partition RadioConfig RandomBackoff RandomStreams RandomWalk
    RandomWaypoint RayleighFading ReproServer ResultCache RoutelessConfig
    RoutelessRouting SSAF ScenarioConfig ServeClient ServeConfig ServeError
    ServerThread SignalStrengthBackoff SimContext Simulator SweepSeries
    TokenMutex Transceiver TwoRayGround Violation VirtualForceConfig
    VirtualForceControl attach_cbr build_network
    build_protocol_network check_invariants config_fingerprint
    connected_uniform fig4_plan format_table grid install_plan
    mixed_chaos_plan mobility_model mobility_model_names pick_flows
    register_mobility_model registry run_campaign run_spec uniform_random
""".split())


@pytest.mark.parametrize("module_name", ["repro.api"])
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert module.__all__
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__
               if not hasattr(module, name)]
    assert missing == []


def test_promised_names_stay_exported():
    import repro.api

    assert len(PROMISED) == 88
    assert sorted(PROMISED - set(repro.api.__all__)) == []


def _fresh_import(module_name):
    """``(repro.__version__, sorted loaded repro.* modules)`` after importing
    ``module_name`` in a fresh interpreter: this test session has long since
    imported the whole package, so only a new process shows what an import
    costs."""
    code = (f"import sys, repro, {module_name}; "
            "print(repro.__version__); "
            "print(sorted(m for m in sys.modules if m.startswith('repro.')))")
    import repro
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], check=True, env=env,
                          capture_output=True, text=True).stdout.splitlines()


def test_package_import_loads_no_submodule():
    version, loaded = _fresh_import("repro")
    assert version
    assert loaded == "[]"


def test_experiments_cli_import_loads_no_simulator():
    # ``python -m repro.experiments`` parses its arguments before importing
    # any experiment: the package init re-exports nothing.
    _version, loaded = _fresh_import("repro.experiments.cli")
    assert loaded == "['repro.experiments', 'repro.experiments.cli']"


@pytest.mark.parametrize("module_name", ["repro.obs", "repro.net"])
def test_layer_package_imports_on_its_own(module_name):
    # ``repro.obs`` imports ``repro.net.packet`` at module level, so the
    # ``repro.net`` package must not pull in the protocols (which import
    # ``repro.obs``) on the way.
    _version, loaded = _fresh_import(module_name)
    assert f"'{module_name}'" in loaded
