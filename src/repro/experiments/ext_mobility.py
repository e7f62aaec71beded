"""Extension experiment — routing under node mobility.

Not in the paper's evaluation (its dynamics come from transceiver failures),
but squarely in its motivation: Routeless Routing "makes networks more
adaptive to dynamic changes".  This sweep moves every non-endpoint node with
the random-waypoint model and compares the explicit-route protocols (AODV,
DSR, DSDV) against Routeless Routing across maximum speeds.

Expected shape, extrapolating the paper's argument: the explicit-route
protocols pay for every broken link (repair floods and/or stale tables — cost
grows with speed), while Routeless Routing re-elects each hop per packet and
degrades only through table staleness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.experiments.common import (
    ScenarioConfig,
    attach_cbr,
    build_protocol_network,
    paper_scale,
    pick_flows,
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

__all__ = ["MobilityExpConfig", "campaign_spec", "run_one"]


@dataclass(frozen=True, kw_only=True)
class MobilityExpConfig:
    """Sweep grid for the mobility extension experiment."""
    n_nodes: int = 100
    terrain_m: float = 900.0
    range_m: float = 250.0
    n_pairs: int = 3
    cbr_interval_s: float = 1.0
    duration_s: float = 30.0
    max_speeds_mps: tuple[float, ...] = (0.0, 5.0, 10.0, 20.0)
    seeds: tuple[int, ...] = (1, 2)
    protocols: tuple[str, ...] = ("aodv", "dsr", "dsdv", "routeless")

    @classmethod
    def paper(cls) -> "MobilityExpConfig":
        return cls(n_nodes=200, terrain_m=1300.0, duration_s=60.0,
                   seeds=(1, 2, 3))

    @classmethod
    def active(cls) -> "MobilityExpConfig":
        return cls.paper() if paper_scale() else cls()


def run_one(protocol: str, max_speed: float, seed: int,
            config: MobilityExpConfig, obs=None, faults=None,
            mobility: str | None = None) -> ExperimentResult:
    started = time.perf_counter()
    # ``--mobility NAME`` swaps the model; 3-D-only models get a degenerate
    # depth_m=0 arena (x/y placement draws are unchanged, z is pinned to 0).
    model_cls = mobility_model(mobility) if mobility is not None else None
    needs_3d = model_cls is not None and issubclass(model_cls, GaussMarkov3D)
    scenario = ScenarioConfig(
        n_nodes=config.n_nodes,
        width_m=config.terrain_m,
        height_m=config.terrain_m,
        depth_m=0.0 if needs_3d else None,
        range_m=config.range_m,
        seed=seed,
    )
    net = build_protocol_network(protocol, scenario, obs=obs)
    flows = pick_flows(config.n_nodes, config.n_pairs,
                       RandomStreams(seed + 4242).stream("mobility.flows"),
                       bidirectional=True)
    endpoints = {node for flow in flows for node in flow}
    if max_speed > 0:
        if needs_3d:
            model_cls(
                net.ctx, net.channel, arena=scenario.arena,
                config=GaussMarkovConfig(mean_speed_mps=max_speed),
                frozen=endpoints,
            )
        else:
            cls = model_cls if model_cls is not None else mobility_model("rwp")
            cls(
                net.ctx, net.channel, arena=scenario.arena,
                config=MobilityConfig(min_speed_mps=max(0.5, max_speed / 4),
                                      max_speed_mps=max_speed),
                frozen=endpoints,  # endpoints pinned, like Figure 4's exemption
            )
    if faults is not None:
        from repro.faults import install_plan
        install_plan(net, faults, exempt=endpoints)
    attach_cbr(net, flows, interval_s=config.cbr_interval_s,
               stop_s=config.duration_s - 3.0)
    net.run(until=config.duration_s)
    return ExperimentResult.from_summary(
        net.summary(), config=config, seed=seed,
        wall_s=time.perf_counter() - started)


@experiment(name="mobility",
            description="Extension: routing under random-waypoint mobility",
            panels=("delivery_ratio", "avg_delay_s", "mac_packets"),
            x_label="max node speed (m/s)")
def campaign_spec(config: MobilityExpConfig | None = None):
    """This sweep as a :class:`repro.campaign.CampaignSpec`."""
    from repro.campaign import CampaignSpec
    config = config if config is not None else MobilityExpConfig.active()
    return CampaignSpec(name="mobility", run_one=run_one,
                        protocols=config.protocols, xs=config.max_speeds_mps,
                        seeds=config.seeds, config=config)
