"""Extension experiment — scalability with network size.

The paper's introduction motivates localized algorithms with scalability
("a futuristic but not unrealistic wireless sensor network consisting of
millions of tiny sensors").  This sweep grows the network at constant node
density and constant offered load, and reports how each protocol's total MAC
transmissions and delivery hold up.

Expected shape: flooding data (counter-1/SSAF) scales with network size per
packet (every node touches every packet) while the routing protocols scale
with route length (∝ √N at constant density); DSDV additionally pays a
background control cost that grows with N (its table dumps).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.experiments.common import (
    ScenarioConfig,
    attach_cbr,
    build_protocol_network,
    large_scale,
    paper_scale,
    pick_flows,
)
from repro.experiments.registry import experiment
from repro.experiments.result import ExperimentResult
from repro.sim.rng import RandomStreams

__all__ = ["ScalingConfig", "campaign_spec", "run_one"]

#: Node density matching the paper's Figure 3 (500 nodes / 4 km²).
DENSITY_PER_M2 = 125e-6


@dataclass(frozen=True, kw_only=True)
class ScalingConfig:
    """Sweep grid for the network-size scaling experiment."""
    node_counts: tuple[int, ...] = (50, 100, 200)
    n_pairs: int = 3
    range_m: float = 250.0
    cbr_interval_s: float = 1.0
    duration_s: float = 25.0
    seeds: tuple[int, ...] = (1, 2)
    protocols: tuple[str, ...] = ("counter1", "routeless", "aodv")

    @classmethod
    def paper(cls) -> "ScalingConfig":
        return cls(node_counts=(100, 200, 350, 500), seeds=(1, 2, 3))

    @classmethod
    def large(cls) -> "ScalingConfig":
        """The 10,000-node cell the sparse link budget exists for.

        One protocol, one seed, a short horizon: the point is exercising
        the O(n·k) channel at the Ghaffari–Haeupler / Czumaj–Davies scale
        regime, not sweeping a grid.  Dense would need ~2.4 GB for the
        float64 matrices alone; sparse holds the link budget in tens of MB.
        Guarded behind ``repro campaign scaling --large`` (REPRO_LARGE_SCALE)
        so quick CI never pays for it.
        """
        return cls(node_counts=(2000, 10000), seeds=(1,),
                   protocols=("counter1",), duration_s=10.0,
                   cbr_interval_s=2.0, n_pairs=2)

    @classmethod
    def active(cls) -> "ScalingConfig":
        if large_scale():
            return cls.large()
        return cls.paper() if paper_scale() else cls()


def terrain_for(n_nodes: int) -> float:
    """Terrain side length keeping the paper's density."""
    return math.sqrt(n_nodes / DENSITY_PER_M2)


def run_one(protocol: str, n_nodes: int, seed: int, config: ScalingConfig,
            obs=None, faults=None) -> ExperimentResult:
    started = time.perf_counter()
    terrain = terrain_for(n_nodes)
    scenario = ScenarioConfig(
        n_nodes=n_nodes, width_m=terrain, height_m=terrain,
        range_m=config.range_m, seed=seed,
    )
    net = build_protocol_network(protocol, scenario, obs=obs)
    flows = pick_flows(n_nodes, config.n_pairs,
                       RandomStreams(seed + 1717).stream("scaling.flows"),
                       bidirectional=True)
    if faults is not None:
        from repro.faults import install_plan
        endpoints = {node for flow in flows for node in flow}
        install_plan(net, faults, exempt=endpoints)
    attach_cbr(net, flows, interval_s=config.cbr_interval_s,
               stop_s=config.duration_s - 3.0)
    net.run(until=config.duration_s)
    return ExperimentResult.from_summary(
        net.summary(), config=config, seed=seed,
        wall_s=time.perf_counter() - started)


@experiment(name="scaling",
            description="Extension: MAC cost and delivery vs network size "
                        "at constant density",
            panels=("mac_packets", "delivery_ratio", "avg_delay_s"),
            x_label="network size (nodes)")
def campaign_spec(config: ScalingConfig | None = None):
    """This sweep as a :class:`repro.campaign.CampaignSpec`."""
    from repro.campaign import CampaignSpec
    config = config if config is not None else ScalingConfig.active()
    return CampaignSpec(name="scaling", run_one=run_one,
                        protocols=config.protocols, xs=config.node_counts,
                        seeds=config.seeds, config=config)
