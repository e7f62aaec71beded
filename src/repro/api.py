"""repro.api — the supported programmatic surface, in one place.

Everything importable from this module is covered by the compatibility
promise: names stay put across releases, config dataclasses are
keyword-only (positional construction was never supported and is now a
``TypeError``), and every experiment ``run_one`` returns an
:class:`ExperimentResult`.  Anything imported from deeper module paths is
internal and may move without notice.

The surface, by task:

**Build and run a network** — :class:`ScenarioConfig` describes one
deployment (terrain, density, range, propagation, energy); pass it and a
protocol factory to :func:`build_network`, attach workload with
:func:`attach_cbr`, then ``net.run(until=...)``::

    from repro.api import ScenarioConfig, build_network, attach_cbr
    from repro import SSAF
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
experiment names to their sweep definitions; :func:`run_campaign` /
:func:`run_spec` execute a :class:`CampaignSpec` with caching, journaling
and multiprocess fan-out.  Every cell comes back as an
:class:`ExperimentResult` (metrics dict + config fingerprint + seed +
wall time)::

    from repro.api import registry, run_spec
    outcome = run_spec(registry.get("fig3").build_spec(), workers=4)

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
from repro.serve import (
    ReproServer,
    ServeClient,
    ServeConfig,
    ServeError,
    ServerThread,
)
from repro.stats import MetricsSummary, SweepSeries
from repro.topology import (
    Arena,
    GaussMarkov3D,
    GaussMarkovConfig,
    MobilityConfig,
    RandomWalk,
    RandomWaypoint,
    VirtualForceConfig,
    VirtualForceControl,
    mobility_model,
    mobility_model_names,
    register_mobility_model,
)

__all__ = [
    # network construction
    "Network",
    "ScenarioConfig",
    "attach_cbr",
    "build_network",
    "build_protocol_network",
    "pick_flows",
    # geometry and mobility
    "Arena",
    "GaussMarkov3D",
    "GaussMarkovConfig",
    "MobilityConfig",
    "RandomWalk",
    "RandomWaypoint",
    "VirtualForceConfig",
    "VirtualForceControl",
    "mobility_model",
    "mobility_model_names",
    "register_mobility_model",
    # campaigns and results
    "CampaignOutcome",
    "CampaignSpec",
    "ExperimentResult",
    "MetricsSummary",
    "ResultCache",
    "SweepSeries",
    "config_fingerprint",
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
