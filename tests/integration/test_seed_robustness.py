"""Seed robustness of the headline orderings.

A reproduction whose claims hold only on cherry-picked seeds is not a
reproduction.  These tests run the two headline comparisons over a seed
panel and require the paper's ordering to hold in the clear majority — with
the *averages* over the panel always ordered correctly.
"""

import pytest

from repro.experiments.common import (
    ScenarioConfig,
    attach_cbr,
    build_protocol_network,
    pick_flows,
)
from repro.sim.rng import RandomStreams

SEEDS = (11, 22, 33, 44, 55)


def flooding_hops(protocol, seed):
    net = build_protocol_network(
        protocol, ScenarioConfig(n_nodes=50, width_m=700, height_m=700,
                                 range_m=250, seed=seed))
    flows = pick_flows(50, 8, RandomStreams(seed).stream("sr"),
                       distinct_endpoints=False)
    attach_cbr(net, flows, interval_s=1.0, stop_s=8.0)
    net.run(until=10.0)
    return net.summary().avg_hops


@pytest.mark.slow
def test_ssaf_hop_advantage_across_seeds():
    wins = 0
    ssaf_total = counter_total = 0.0
    for seed in SEEDS:
        ssaf = flooding_hops("ssaf", seed)
        counter1 = flooding_hops("counter1", seed)
        ssaf_total += ssaf
        counter_total += counter1
        if ssaf < counter1:
            wins += 1
    assert wins >= 4, f"SSAF won only {wins}/{len(SEEDS)} seeds"
    assert ssaf_total < counter_total


def routing_cell(protocol, seed, failure):
    from repro.experiments.fig3_rr_vs_aodv import Fig3Config
    from repro.experiments.fig4_failures import Fig4Config, run_cell
    config = Fig4Config(
        base=Fig3Config(n_nodes=100, terrain_m=900.0, duration_s=20.0),
        n_pairs=3)
    return run_cell(protocol, failure, seed, config).to_summary()


@pytest.mark.slow
def test_rr_failure_resilience_across_seeds():
    wins = 0
    for seed in SEEDS[:3]:
        aodv = routing_cell("aodv", seed, failure=0.10)
        rr = routing_cell("routeless", seed, failure=0.10)
        if rr.delivery_ratio >= aodv.delivery_ratio - 0.01 and \
                rr.mac_packets < aodv.mac_packets:
            wins += 1
    assert wins >= 2, f"RR resilience held on only {wins}/3 seeds"
