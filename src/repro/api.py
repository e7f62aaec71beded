"""repro.api — the supported programmatic surface, in one place.

Everything importable from this module is covered by the compatibility
promise: names stay put across releases, config dataclasses are
keyword-only (positional construction was never supported and is now a
``TypeError``), and every experiment ``run_one`` returns an
:class:`ExperimentResult`.  Anything imported from deeper module paths is
internal and may move without notice.

The surface, by task (the simulator layers underneath — :class:`Simulator`
and :class:`Channel`, the :class:`CsmaMac`, the election primitive and its
backoff policies, and the protocols from :class:`SSAF` to :class:`Aodv` —
are exported here too, for building custom stacks):

**Build and run a network** — :class:`ScenarioConfig` describes one
deployment (terrain, density, range, propagation, energy); pass it and a
protocol factory to :func:`build_network`, attach workload with
:func:`attach_cbr`, then ``net.run(until=...)``::

    from repro.api import SSAF, ScenarioConfig, attach_cbr, build_network
    net = build_network(
        lambda ctx, nid, mac, m: SSAF(ctx, nid, mac, metrics=m),
        ScenarioConfig(n_nodes=50, seed=7),
    )
    attach_cbr(net, [(0, 42)], interval_s=2.0)
    net.run(until=60.0)

**Shape the deployment** — an :class:`Arena` describes the deployment box
(2-D terrain, or a 3-D volume via ``depth_m``); mobility models
(:class:`RandomWaypoint`, :class:`RandomWalk`, :class:`GaussMarkov3D`) and
the :class:`VirtualForceControl` topology controller move nodes through
it, and :func:`mobility_model` resolves models by registry name so
campaigns can sweep them (see ``docs/SCENARIOS.md``)::

    from repro.api import Arena, GaussMarkov3D, GaussMarkovConfig
    arena = Arena(900.0, 900.0, depth_m=200.0)
    GaussMarkov3D(net.ctx, net.channel, arena=arena,
                  config=GaussMarkovConfig(alpha=0.85))

**Run experiment sweeps** — the :mod:`~repro.experiments.registry` maps
experiment names to their sweep definitions, and ``ExperimentDef.run`` is
the way to run one: it returns ``{protocol: SweepSeries}`` and raises if
any cell is quarantined.  Its keyword arguments (``cache_dir``,
``campaign_dir``, ``workers``, ...) go to :func:`run_spec`, which executes
a :class:`CampaignSpec` with caching (a killed sweep re-run on the same
``cache_dir`` executes only the cells that had not settled) and
multiprocess fan-out; call :func:`run_spec` (or :func:`run_campaign`)
directly for the tolerant semantics that report quarantined cells and
carry on.  Every cell comes back as an :class:`ExperimentResult` (metrics
dict + config fingerprint + seed + wall time)::

    from repro.api import registry
    results = registry.get("fig3").run(workers=4)

**Inject faults** — a :class:`FaultPlan` is a declarative, serializable,
seed-reproducible chaos schedule; :func:`install_plan` arms it on a built
network, and :func:`check_invariants` audits the run's observability
ledger afterwards (see ``docs/FAULTS.md``)::

    from repro.api import FaultPlan, NodeCrash, install_plan, check_invariants
    plan = FaultPlan(name="crash", faults=(
        NodeCrash(nodes=(7,), start_s=3.0, recover_s=6.0),))
    controller = install_plan(net, plan, exempt={0, 42})

**Serve results** — :class:`ReproServer` (or ``repro serve``) puts the
campaign cache and executor behind a long-lived HTTP/JSON + SSE daemon
with single-flight dedup and two-lane admission control;
:class:`ServeClient` (or ``repro query``) is the matching client, and
:class:`ServerThread` embeds a daemon in-process (see
``docs/SERVING.md``)::

    from repro.api import ServeClient, ServeConfig, ServerThread
    with ServerThread(ServeConfig(port=0, cache_dir="campaigns/cache")) as srv:
        reply = ServeClient(srv.base_url).run(
            {"experiment": "fig1", "protocol": "ssaf", "x": 1.0, "seed": 1})
"""

from __future__ import annotations

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
from repro.experiments import registry
from repro.experiments.common import (
    Network,
    ScenarioConfig,
    attach_cbr,
    build_network,
    build_protocol_network,
    pick_flows,
)
from repro.experiments.result import ExperimentResult, config_fingerprint
from repro.faults import (
    ClockSkew,
    DutyCycleOutage,
    EnergyDepletion,
    FaultController,
    FaultPlan,
    InvariantViolation,
    LinkDegradation,
    NodeCrash,
    PacketCorruption,
    Partition,
    Violation,
    check_invariants,
    fig4_plan,
    install_plan,
    mixed_chaos_plan,
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
from repro.serve import (
    ReproServer,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerThread,
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

__all__ = [
    # simulation kernel
    "RandomStreams",
    "SimContext",
    "Simulator",
    # radio and MAC
    "Channel",
    "CsmaMac",
    "FreeSpace",
    "LogDistance",
    "MacConfig",
    "RadioConfig",
    "RayleighFading",
    "Transceiver",
    "TwoRayGround",
    # the election primitive and its backoff policies
    "BackoffInput",
    "BackoffPolicy",
    "ElectionConfig",
    "ElectionNode",
    "FunctionBackoff",
    "HopCountBackoff",
    "MutexConfig",
    "RandomBackoff",
    "SignalStrengthBackoff",
    "TokenMutex",
    # protocols
    "ActiveNodeTable",
    "Aodv",
    "AodvConfig",
    "BlindFlooding",
    "Counter1Flooding",
    "Dsdv",
    "Dsr",
    "FloodingConfig",
    "GradientRouting",
    "Packet",
    "PacketKind",
    "RoutelessConfig",
    "RoutelessRouting",
    "SSAF",
    # network construction
    "Network",
    "ScenarioConfig",
    "attach_cbr",
    "build_network",
    "build_protocol_network",
    "pick_flows",
    # geometry, placement and mobility
    "Arena",
    "GaussMarkov3D",
    "GaussMarkovConfig",
    "MobilityConfig",
    "RandomWalk",
    "RandomWaypoint",
    "VirtualForceConfig",
    "VirtualForceControl",
    "apply_failures",
    "connected_uniform",
    "grid",
    "mobility_model",
    "mobility_model_names",
    "register_mobility_model",
    "uniform_random",
    # campaigns and results
    "CampaignOutcome",
    "CampaignSpec",
    "ExperimentResult",
    "MetricsCollector",
    "MetricsSummary",
    "ResultCache",
    "SweepSeries",
    "config_fingerprint",
    "format_table",
    "registry",
    "run_campaign",
    "run_spec",
    # fault injection
    "ClockSkew",
    "DutyCycleOutage",
    "EnergyDepletion",
    "FaultController",
    "FaultPlan",
    "InvariantViolation",
    "LinkDegradation",
    "NodeCrash",
    "PacketCorruption",
    "Partition",
    "Violation",
    "check_invariants",
    "fig4_plan",
    "install_plan",
    "mixed_chaos_plan",
    # result serving
    "ReproServer",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerThread",
]
