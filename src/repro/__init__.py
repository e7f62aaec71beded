"""repro — a reproduction of Chen, Branch & Szymanski (WMAN'05):
"Local Leader Election, Signal Strength Aware Flooding, and Routeless Routing".

The package provides, from the ground up:

* a deterministic discrete-event wireless network simulator
  (:mod:`repro.sim`, :mod:`repro.phy`, :mod:`repro.mac`) standing in for the
  authors' SENSE simulator;
* the paper's contribution — the local leader election primitive with
  metric-derived backoff policies (:mod:`repro.core`);
* the protocols built on it — SSAF and Routeless Routing — plus the
  baselines they are evaluated against: counter-1 flooding, blind flooding,
  AODV and Gradient Routing (:mod:`repro.net`);
* workload, topology, failure and metrics infrastructure
  (:mod:`repro.app`, :mod:`repro.topology`, :mod:`repro.stats`);
* the paper's four evaluation figures as runnable experiments
  (:mod:`repro.experiments`) and terminal visualization (:mod:`repro.viz`).

Quickstart::

    from repro import (ScenarioConfig, build_network, attach_cbr, SSAF)
    net = build_network(
        lambda ctx, nid, mac, m: SSAF(ctx, nid, mac, metrics=m),
        ScenarioConfig(n_nodes=50, seed=7),
    )
    attach_cbr(net, [(0, 42)], interval_s=2.0)
    net.run(until=60.0)
    print(net.summary())
"""

from repro.campaign import (
    CampaignOutcome,
    CampaignSpec,
    ResultCache,
    run_campaign,
    run_spec,
)
from repro.core import (
    BackoffInput,
    BackoffPolicy,
    ElectionConfig,
    ElectionNode,
    FunctionBackoff,
    HopCountBackoff,
    MutexConfig,
    RandomBackoff,
    SignalStrengthBackoff,
    TokenMutex,
)
from repro.experiments.common import (
    Network,
    ScenarioConfig,
    attach_cbr,
    build_network,
    pick_flows,
)
from repro.mac import CsmaMac, MacConfig
from repro.net import (
    SSAF,
    ActiveNodeTable,
    Aodv,
    AodvConfig,
    BlindFlooding,
    Counter1Flooding,
    Dsdv,
    Dsr,
    FloodingConfig,
    GradientRouting,
    Packet,
    PacketKind,
    RoutelessConfig,
    RoutelessRouting,
)
from repro.phy import (
    Channel,
    FreeSpace,
    LogDistance,
    RadioConfig,
    RayleighFading,
    Transceiver,
    TwoRayGround,
)
from repro.sim import RandomStreams, SimContext, Simulator
from repro.stats import MetricsCollector, MetricsSummary, SweepSeries, format_table
from repro.topology import (
    Arena,
    GaussMarkov3D,
    GaussMarkovConfig,
    MobilityConfig,
    RandomWalk,
    RandomWaypoint,
    VirtualForceConfig,
    VirtualForceControl,
    apply_failures,
    connected_uniform,
    grid,
    mobility_model,
    mobility_model_names,
    register_mobility_model,
    uniform_random,
)

__version__ = "1.0.0"

__all__ = [
    "ActiveNodeTable",
    "Aodv",
    "Arena",
    "AodvConfig",
    "BackoffInput",
    "BackoffPolicy",
    "BlindFlooding",
    "CampaignOutcome",
    "CampaignSpec",
    "Channel",
    "Counter1Flooding",
    "Dsdv",
    "Dsr",
    "CsmaMac",
    "ElectionConfig",
    "ElectionNode",
    "FloodingConfig",
    "FreeSpace",
    "FunctionBackoff",
    "GaussMarkov3D",
    "GaussMarkovConfig",
    "GradientRouting",
    "HopCountBackoff",
    "LogDistance",
    "MacConfig",
    "MetricsCollector",
    "MobilityConfig",
    "MutexConfig",
    "MetricsSummary",
    "Network",
    "Packet",
    "PacketKind",
    "RadioConfig",
    "RandomBackoff",
    "RandomWalk",
    "RandomWaypoint",
    "RandomStreams",
    "RayleighFading",
    "ResultCache",
    "RoutelessConfig",
    "RoutelessRouting",
    "SSAF",
    "ScenarioConfig",
    "SignalStrengthBackoff",
    "SimContext",
    "Simulator",
    "SweepSeries",
    "TokenMutex",
    "Transceiver",
    "TwoRayGround",
    "VirtualForceConfig",
    "VirtualForceControl",
    "apply_failures",
    "attach_cbr",
    "build_network",
    "connected_uniform",
    "format_table",
    "grid",
    "mobility_model",
    "mobility_model_names",
    "pick_flows",
    "register_mobility_model",
    "run_campaign",
    "run_spec",
    "uniform_random",
]
