"""Figure 4 — Routeless Routing versus AODV under node failures.

Paper setup: same terrain as Figure 3; transceivers of every node *except*
the CBR endpoints are switched off a random 0-10 % of the time.  Four
panels, x-axis now the failure percentage.

Shape to reproduce:

* AODV's end-to-end delay and MAC packet count climb roughly linearly with
  the failure rate (every outage breaks a route: MAC retries, RERRs, a fresh
  discovery flood);
* Routeless Routing's stay approximately flat — a dead node simply loses
  elections it never entered ("completely resilient to node failures");
* delivery ratios stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import paper_scale
from repro.experiments.fig3_rr_vs_aodv import Fig3Config, run_one
from repro.experiments.registry import experiment
from repro.experiments.result import ExperimentResult
from repro.faults.plan import fig4_plan

__all__ = ["Fig4Config", "campaign_spec", "run_cell"]


@dataclass(frozen=True, kw_only=True)
class Fig4Config:
    base: Fig3Config = Fig3Config(duration_s=40.0)
    n_pairs: int = 4
    failure_fractions: tuple[float, ...] = (0.0, 0.02, 0.05, 0.10)
    #: Mean on+off cycle; off bursts last fraction × cycle on average.
    failure_cycle_s: float = 4.0
    seeds: tuple[int, ...] = (1, 2)
    protocols: tuple[str, ...] = ("aodv", "routeless")

    @classmethod
    def paper(cls) -> "Fig4Config":
        return cls(
            base=Fig3Config.paper(),
            n_pairs=5,
            failure_fractions=tuple(i / 100 for i in range(0, 11)),
            seeds=(1, 2, 3),
        )

    @classmethod
    def active(cls) -> "Fig4Config":
        return cls.paper() if paper_scale() else cls()


def run_cell(protocol: str, fraction: float, seed: int, config: Fig4Config,
             obs=None, faults=None) -> ExperimentResult:
    """One Figure 4 cell in the standard (protocol, x, seed, config) shape —
    the swept x here is the failure fraction, not the pair count — so the
    figure fits the campaign/parallel grid runners.

    The failure workload is expressed as a :func:`~repro.faults.plan.fig4_plan`
    FaultPlan, which replays the legacy ``apply_failures`` renewal processes
    bit-identically (same named RNG streams).  Extra ``faults`` merge in.
    """
    plan = fig4_plan(fraction, config.failure_cycle_s) if fraction > 0.0 else None
    if faults is not None:
        plan = plan.merged(faults) if plan is not None else faults
    return run_one(
        protocol, config.n_pairs, seed, config.base,
        obs=obs,
        faults=plan,
    )


@experiment(name="fig4",
            description="Routeless Routing vs AODV under duty-cycled node "
                        "failures (FaultPlan-driven)",
            panels=("avg_delay_s", "delivery_ratio", "mac_packets",
                    "avg_hops"),
            x_label="node failure fraction")
def campaign_spec(config: Fig4Config | None = None):
    """This sweep as a :class:`repro.campaign.CampaignSpec`."""
    from repro.campaign import CampaignSpec
    config = config if config is not None else Fig4Config.active()
    return CampaignSpec(name="fig4", run_one=run_cell,
                        protocols=config.protocols,
                        xs=config.failure_fractions,
                        seeds=config.seeds, config=config)
