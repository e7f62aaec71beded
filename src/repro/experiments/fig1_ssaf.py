"""Figure 1 — SSAF versus counter-1 flooding.

Paper setup: 100 nodes uniformly random on 1000 m × 1000 m, free space
propagation, 50 connections between randomly chosen sources and
destinations, packet generation interval swept along the x-axis.  Three
panels: average end-to-end delay, average hops, delivery ratio.

Paper findings this experiment should reproduce *in shape*:

* SSAF delivers a higher fraction of packets at every interval;
* SSAF's packets take fewer hops;
* SSAF's delay is slightly lower in light traffic and *much* lower at small
  generation intervals, where the MAC priority queue lets short-backoff
  relays overtake queued ones.
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

__all__ = ["Fig1Config", "campaign_spec", "run_one"]


@dataclass(frozen=True, kw_only=True)
class Fig1Config:
    n_nodes: int = 60
    terrain_m: float = 775.0  # preserves the paper's node density
    range_m: float = 250.0
    n_connections: int = 15
    intervals_s: tuple[float, ...] = (0.2, 0.5, 1.0, 2.0, 4.0, 8.0)
    duration_s: float = 12.0
    seeds: tuple[int, ...] = (1, 2)
    protocols: tuple[str, ...] = ("counter1", "ssaf")

    @classmethod
    def paper(cls) -> "Fig1Config":
        return cls(
            n_nodes=100,
            terrain_m=1000.0,
            n_connections=50,
            intervals_s=(0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0),
            duration_s=60.0,
            seeds=(1, 2, 3, 4, 5),
        )

    @classmethod
    def active(cls) -> "Fig1Config":
        return cls.paper() if paper_scale() else cls()


def run_one(protocol: str, interval_s: float, seed: int, config: Fig1Config,
            obs=None, faults=None) -> ExperimentResult:
    """One cell of the sweep.  ``faults`` takes an optional
    :class:`~repro.faults.plan.FaultPlan`, installed with the CBR endpoints
    exempt."""
    started = time.perf_counter()
    scenario = ScenarioConfig(
        n_nodes=config.n_nodes,
        width_m=config.terrain_m,
        height_m=config.terrain_m,
        range_m=config.range_m,
        seed=seed,
    )
    net = build_protocol_network(protocol, scenario, obs=obs)
    flows = pick_flows(
        config.n_nodes,
        config.n_connections,
        RandomStreams(seed + 7777).stream("fig1.flows"),
        distinct_endpoints=False,
    )
    if faults is not None:
        from repro.faults import install_plan
        endpoints = {node for flow in flows for node in flow}
        install_plan(net, faults, exempt=endpoints)
    # Sources stop early enough for in-flight packets to drain.
    attach_cbr(net, flows, interval_s=interval_s,
               stop_s=config.duration_s - 2.0)
    net.run(until=config.duration_s)
    return ExperimentResult.from_summary(
        net.summary(), config=config, seed=seed,
        wall_s=time.perf_counter() - started)


@experiment(name="fig1",
            description="SSAF vs counter-1 flooding (delay, hops, delivery "
                        "vs packet generation interval)",
            panels=("avg_delay_s", "avg_hops", "delivery_ratio"),
            x_label="packet generation interval (s)")
def campaign_spec(config: Fig1Config | None = None):
    """This sweep as a :class:`repro.campaign.CampaignSpec`."""
    from repro.campaign import CampaignSpec
    config = config if config is not None else Fig1Config.active()
    return CampaignSpec(name="fig1", run_one=run_one,
                        protocols=config.protocols, xs=config.intervals_s,
                        seeds=config.seeds, config=config)
