"""Figure 3 — Routeless Routing versus AODV, no node failures.

Paper setup: 500 nodes on 2000 m × 2000 m, transmission range ≈ 250 m,
bidirectional CBR between 1..10 communicating pairs.  Four panels:
end-to-end delay, delivery ratio, number of MAC packets, average hops.

Shape to reproduce:

* delivery ratio ≈ 1.0 for both protocols;
* Routeless Routing's delay is *higher* (each hop waits out an election);
* Routeless Routing uses *fewer* MAC packets (shorter routes + counter-1
  discovery against AODV's original-flooding discovery);
* Routeless Routing's packets take *fewer* hops (it keeps tracking the
  shortest path; AODV is stuck with whatever discovery established).
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

__all__ = ["Fig3Config", "campaign_spec", "run_one"]


@dataclass(frozen=True, kw_only=True)
class Fig3Config:
    n_nodes: int = 150
    terrain_m: float = 1100.0  # ≈ the paper's 125 nodes/km² density
    range_m: float = 250.0
    pair_counts: tuple[int, ...] = (1, 2, 4, 6)
    cbr_interval_s: float = 1.0
    duration_s: float = 30.0
    seeds: tuple[int, ...] = (1, 2)
    protocols: tuple[str, ...] = ("aodv", "routeless")

    @classmethod
    def paper(cls) -> "Fig3Config":
        return cls(
            n_nodes=500,
            terrain_m=2000.0,
            pair_counts=tuple(range(1, 11)),
            duration_s=100.0,
            seeds=(1, 2, 3),
        )

    @classmethod
    def active(cls) -> "Fig3Config":
        return cls.paper() if paper_scale() else cls()


def run_one(protocol: str, n_pairs: int, seed: int, config: Fig3Config,
            failure_fraction: float = 0.0, failure_cycle_s: float = 4.0,
            obs=None, faults=None) -> ExperimentResult:
    """One sweep cell.  ``failure_fraction`` > 0 turns this into a Figure 4
    cell (same harness, different swept variable); ``faults`` installs an
    arbitrary :class:`~repro.faults.plan.FaultPlan` with the CBR endpoints
    exempt."""
    from repro.topology.failures import apply_failures

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
        n_pairs,
        RandomStreams(seed + 8888).stream("fig3.flows"),
        bidirectional=True,  # "the traffic being bidirectional"
        distinct_endpoints=True,
    )
    endpoints = {node for flow in flows for node in flow}
    if failure_fraction > 0.0:
        apply_failures(net.ctx, net.radios, failure_fraction,
                       exempt=endpoints, mean_cycle_s=failure_cycle_s)
    if faults is not None:
        from repro.faults import install_plan
        install_plan(net, faults, exempt=endpoints)
    attach_cbr(net, flows, interval_s=config.cbr_interval_s,
               stop_s=config.duration_s - 3.0)
    net.run(until=config.duration_s)
    return ExperimentResult.from_summary(
        net.summary(), config=config, seed=seed,
        wall_s=time.perf_counter() - started)


@experiment(name="fig3",
            description="Routeless Routing vs AODV, no failures (delay, "
                        "delivery, MAC packets, hops vs pair count)",
            panels=("avg_delay_s", "delivery_ratio", "mac_packets",
                    "avg_hops"),
            x_label="communicating pairs")
def campaign_spec(config: Fig3Config | None = None):
    """This sweep as a :class:`repro.campaign.CampaignSpec`."""
    from repro.campaign import CampaignSpec
    config = config if config is not None else Fig3Config.active()
    return CampaignSpec(name="fig3", run_one=run_one,
                        protocols=config.protocols, xs=config.pair_counts,
                        seeds=config.seeds, config=config)
