"""Ablation — Routeless Routing's robustness knobs.

Three mechanisms DESIGN.md calls out, each exercised under the Figure 4
failure workload where they earn their keep:

* ``participate_without_entry`` — whether entry-less nodes compete
  (penalized) at all.  This is the protocol's failure fallback: with it off,
  a dead corridor has no understudies.
* ``unknown_penalty`` — how much the fallback is handicapped.
* ``max_excess_hops`` — how far off the gradient a node may sit and still
  compete.  0 is aggressive pruning; large values re-admit the zombie
  diffusion documented in EXPERIMENTS.md.
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments.common import (
    ScenarioConfig,
    attach_cbr,
    build_protocol_network,
    pick_flows,
)
from repro.faults import fig4_plan, install_plan
from repro.net.routeless import RoutelessConfig
from repro.sim.rng import RandomStreams

SEEDS = (1, 2)
FAILURE = 0.15  # harsh enough that the fallback machinery matters


def run(config: RoutelessConfig, seed: int):
    scenario = ScenarioConfig(n_nodes=100, width_m=900, height_m=900,
                              range_m=250, seed=seed)
    net = build_protocol_network("routeless", scenario, protocol_config=config)
    flows = pick_flows(100, 3, RandomStreams(seed + 17).stream("rrp"),
                       bidirectional=True)
    endpoints = {node for flow in flows for node in flow}
    install_plan(net, fig4_plan(FAILURE, mean_cycle_s=3.0), exempt=endpoints)
    attach_cbr(net, flows, interval_s=1.0, stop_s=25.0)
    net.run(until=30.0)
    return net.summary()


VARIANTS = {
    "default": RoutelessConfig(),
    "no_fallback": RoutelessConfig(participate_without_entry=False),
    "penalty=1": RoutelessConfig(unknown_penalty=1),
    "penalty=5": RoutelessConfig(unknown_penalty=5,
                                 arbiter_timeout_s=0.35),
    "excess=0": RoutelessConfig(max_excess_hops=0),
    "excess=8": RoutelessConfig(max_excess_hops=8),
}


def test_rr_parameter_robustness(benchmark, report):
    def sweep():
        rows = {}
        for name, config in VARIANTS.items():
            delivery = delay = mac = 0.0
            for seed in SEEDS:
                summary = run(config, seed)
                delivery += summary.delivery_ratio / len(SEEDS)
                delay += summary.avg_delay_s / len(SEEDS)
                mac += summary.mac_packets / len(SEEDS)
            rows[name] = (delivery, delay, mac)
        return rows

    rows = run_once(benchmark, sweep)
    lines = [f"=== Ablation: Routeless Routing knobs at {FAILURE:.0%} failures ===",
             f"{'variant':>12} {'delivery':>9} {'delay_s':>9} {'mac_pkts':>9}"]
    for name, (delivery, delay, mac) in rows.items():
        lines.append(f"{name:>12} {delivery:>9.3f} {delay:>9.4f} {mac:>9.0f}")
    report("ablation_rr_params", "\n".join(lines))

    # Every sane variant keeps the protocol serviceable under failures...
    for name in ("default", "penalty=1", "penalty=5", "excess=0", "excess=8"):
        assert rows[name][0] > 0.9, name
    # ...and re-admitting far-off-gradient nodes costs transmissions.
    assert rows["excess=8"][2] > rows["excess=0"][2]
