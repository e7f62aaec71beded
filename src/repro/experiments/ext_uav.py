"""Extension experiment — SSAF and Routeless Routing over a 3-D UAV swarm.

The paper evaluates its protocols on flat terrains; UAV swarms are the
modern deployment where its core ideas bite hardest — no infrastructure, no
time to build routes, constant topology churn.  This sweep flies a fleet
through a 3-D deployment volume under :class:`~repro.topology.GaussMarkov3D`
mobility and compares SSAF flooding and Routeless Routing against the
counter-1 flooding baseline across the Gauss-Markov memory parameter α:

* **α = 0** — memoryless jitter: each tick an independent velocity draw,
  the harshest churn (random-walk-like thrash);
* **α → 1** — smooth coordinated flight: velocities persist, topology
  changes slowly and coherently.

Expected shape: counter-1 flooding is insensitive to α (it re-floods
everything anyway); SSAF's signal-strength elections and Routeless
Routing's per-hop gradients both prefer coherent motion, so their delivery
and cost curves should improve with α.

A ``virtual_force=True`` config runs the station-keeping variant instead:
no free flight, the :class:`~repro.topology.VirtualForceControl` relaxation
spreads the fleet toward its target spacing while traffic flows.

Campaign-ready: results flow through the cache and observability stack
like every other experiment; ``repro campaign uav --quick`` runs a
smoke-sized sweep, ``--mobility NAME`` swaps the mobility model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.experiments.common import (
    ScenarioConfig,
    attach_cbr,
    build_protocol_network,
    paper_scale,
    pick_flows,
    quick_scale,
)
from repro.experiments.registry import experiment
from repro.experiments.result import ExperimentResult
from repro.sim.rng import RandomStreams
from repro.topology.mobility import (
    GaussMarkov3D,
    GaussMarkovConfig,
    MobilityConfig,
    mobility_model,
)
from repro.topology.vforce import VirtualForceConfig, VirtualForceControl

__all__ = ["UavConfig", "campaign_spec", "run_one"]


@dataclass(frozen=True, kw_only=True)
class UavConfig:
    """Sweep grid for the 3-D UAV extension experiment."""
    n_nodes: int = 60
    terrain_m: float = 900.0
    #: Altitude extent of the deployment volume.
    depth_m: float = 200.0
    range_m: float = 250.0
    n_pairs: int = 3
    cbr_interval_s: float = 1.0
    duration_s: float = 20.0
    mean_speed_mps: float = 12.0
    #: The x axis: Gauss-Markov memory parameter per cell.
    alphas: tuple[float, ...] = (0.0, 0.5, 0.85)
    seeds: tuple[int, ...] = (1, 2)
    protocols: tuple[str, ...] = ("counter1", "ssaf", "routeless")
    #: Station-keeping variant: virtual-force relaxation instead of free
    #: Gauss-Markov flight (α then only labels the cell).
    virtual_force: bool = False

    @classmethod
    def paper(cls) -> "UavConfig":
        return cls(n_nodes=100, duration_s=40.0,
                   alphas=(0.0, 0.25, 0.5, 0.75, 0.95), seeds=(1, 2, 3))

    @classmethod
    def quick(cls) -> "UavConfig":
        return cls(n_nodes=40, duration_s=8.0, n_pairs=2,
                   alphas=(0.0, 0.85), seeds=(1,))

    @classmethod
    def active(cls) -> "UavConfig":
        if quick_scale():
            return cls.quick()
        return cls.paper() if paper_scale() else cls()


def run_one(protocol: str, alpha: float, seed: int, config: UavConfig,
            obs=None, faults=None, mobility: str | None = None) -> ExperimentResult:
    started = time.perf_counter()
    scenario = ScenarioConfig(
        n_nodes=config.n_nodes,
        width_m=config.terrain_m,
        height_m=config.terrain_m,
        depth_m=config.depth_m,
        range_m=config.range_m,
        seed=seed,
    )
    net = build_protocol_network(protocol, scenario, obs=obs)
    flows = pick_flows(config.n_nodes, config.n_pairs,
                       RandomStreams(seed + 31415).stream("uav.flows"),
                       bidirectional=True)
    endpoints = {node for flow in flows for node in flow}

    arena = scenario.arena
    if config.virtual_force:
        VirtualForceControl(
            net.ctx, net.channel, arena=arena,
            config=VirtualForceConfig(comm_range_m=config.range_m),
            frozen=endpoints,
        )
    else:
        model_cls = mobility_model(mobility) if mobility is not None \
            else GaussMarkov3D
        if issubclass(model_cls, GaussMarkov3D):
            model_cls(
                net.ctx, net.channel, arena=arena,
                config=GaussMarkovConfig(alpha=alpha,
                                         mean_speed_mps=config.mean_speed_mps),
                frozen=endpoints,
            )
        else:
            # A 2-D-native model over the 3-D arena: waypoints/headings
            # sample the full volume; α only labels the cell.
            model_cls(
                net.ctx, net.channel, arena=arena,
                config=MobilityConfig(
                    min_speed_mps=max(0.5, config.mean_speed_mps / 4),
                    max_speed_mps=config.mean_speed_mps),
                frozen=endpoints,
            )
    if faults is not None:
        from repro.faults import install_plan
        install_plan(net, faults, exempt=endpoints)
    attach_cbr(net, flows, interval_s=config.cbr_interval_s,
               stop_s=config.duration_s - 3.0)
    net.run(until=config.duration_s)
    altitudes = net.channel.positions[:, 2]
    return ExperimentResult.from_summary(
        net.summary(), config=config, seed=seed,
        wall_s=time.perf_counter() - started,
        mean_altitude_m=float(np.mean(altitudes)),
        max_altitude_m=float(np.max(altitudes)),
    )


@experiment(name="uav",
            description="Extension: 3-D UAV swarm under Gauss-Markov mobility",
            panels=("delivery_ratio", "avg_delay_s", "mac_packets"),
            x_label="Gauss-Markov memory alpha")
def campaign_spec(config: UavConfig | None = None):
    """This sweep as a :class:`repro.campaign.CampaignSpec`."""
    from repro.campaign import CampaignSpec
    config = config if config is not None else UavConfig.active()
    return CampaignSpec(name="uav", run_one=run_one,
                        protocols=config.protocols, xs=config.alphas,
                        seeds=config.seeds, config=config)
