"""The CSR link budget reproduces the dense-matrix channel end to end.

The channel once also kept dense N×N matrices, and every run here was
checked dense against sparse.  The dense path is gone; what it pinned
stays pinned: the reach sets and received powers of a static network equal
the dense reference arithmetic, the fig1 cells hit the recorded
seed-implementation golden numbers, and the mobility and fault-plan runs
hit the metrics both representations produced when both still existed.
"""

import hashlib

import pytest

from repro.experiments.common import (
    ScenarioConfig,
    attach_cbr,
    build_protocol_network,
    pick_flows,
)
from repro.experiments.fig1_ssaf import Fig1Config
from repro.faults import FaultPlan, LinkDegradation, Partition, install_plan
from repro.sim.rng import RandomStreams
from repro.topology.arena import Arena
from repro.topology.mobility import MobilityConfig, RandomWaypoint

from tests.experiments.test_golden_equivalence import EXACT, GOLDEN, INTERVAL_S
from tests.phy.link_budget_reference import assert_matches_reference

# metrics_tuple() of the runs below, recorded with both the dense and the
# sparse channel before the dense one was deleted (the two agreed exactly):
# (events, tx, delivered, generated, avg_delay_s, avg_hops, airtime_s).
MOBILITY_METRICS = (69386, 784, 63, 64, 0.01664343271292449,
                    1.9841269841269842, 1.831423999999964)
#: Leading hex digits of sha256 over the final positions' bytes.
MOBILITY_POSITIONS_SHA256 = "21081682b7020ebf"
FAULT_PLAN_METRICS = (69602, 785, 63, 64, 0.017975967045237285,
                      2.2698412698412698, 1.8337599999999639)


def run_fig1_cell(protocol: str, seed: int):
    config = Fig1Config()
    scenario = ScenarioConfig(
        n_nodes=config.n_nodes, width_m=config.terrain_m,
        height_m=config.terrain_m, range_m=config.range_m, seed=seed)
    net = build_protocol_network(protocol, scenario)
    flows = pick_flows(config.n_nodes, config.n_connections,
                       RandomStreams(seed + 7777).stream("fig1.flows"),
                       distinct_endpoints=False)
    attach_cbr(net, flows, interval_s=INTERVAL_S,
               stop_s=config.duration_s - 2.0)
    net.run(until=config.duration_s)
    return net


def metrics_tuple(net):
    summary = net.summary()
    return (net.simulator.events_processed, net.channel.tx_count,
            summary.delivered, summary.generated, summary.avg_delay_s,
            summary.avg_hops, net.channel.airtime_s)


@pytest.mark.parametrize("protocol,seed", sorted(GOLDEN))
def test_fig1_sparse_hits_golden_numbers(protocol, seed):
    """The channel reproduces the seed implementation's recording."""
    events, tx, delivered, generated, delay, hops, airtime = \
        GOLDEN[(protocol, seed)]
    net = run_fig1_cell(protocol, seed)
    summary = net.summary()
    assert net.simulator.events_processed == events
    assert net.channel.tx_count == tx
    assert summary.delivered == delivered
    assert summary.generated == generated
    assert summary.avg_delay_s == EXACT(delay)
    assert summary.avg_hops == EXACT(hops)
    assert net.channel.airtime_s == EXACT(airtime)


def test_static_reach_sets_and_rx_powers_identical():
    net = build_protocol_network(
        "counter1", ScenarioConfig(n_nodes=80, width_m=700.0, height_m=700.0,
                                   range_m=250.0, seed=5))
    assert_matches_reference(net.channel)


def _mobility_net():
    scenario = ScenarioConfig(n_nodes=60, width_m=700.0, height_m=700.0,
                              range_m=250.0, seed=3)
    net = build_protocol_network("counter1", scenario)
    flows = pick_flows(60, 4, RandomStreams(3 + 4242).stream("mob.flows"),
                       bidirectional=True)
    endpoints = {node for flow in flows for node in flow}
    RandomWaypoint(net.ctx, net.channel, arena=Arena(700.0, 700.0),
                   config=MobilityConfig(min_speed_mps=2.0,
                                         max_speed_mps=10.0),
                   frozen=endpoints)
    attach_cbr(net, flows, interval_s=1.0, stop_s=8.0)
    net.run(until=10.0)
    return net


def test_mobility_run_metrics_identical():
    """Random-waypoint mobility drives ``move_nodes``; the run lands on the
    metrics and final positions recorded from the dense channel."""
    net = _mobility_net()
    assert metrics_tuple(net) == MOBILITY_METRICS
    digest = hashlib.sha256(net.channel.positions.tobytes()).hexdigest()
    assert digest.startswith(MOBILITY_POSITIONS_SHA256)
    assert_matches_reference(net.channel)


def _faulted_net():
    scenario = ScenarioConfig(n_nodes=60, width_m=700.0, height_m=700.0,
                              range_m=250.0, seed=4)
    net = build_protocol_network("counter1", scenario)
    flows = pick_flows(60, 4, RandomStreams(4 + 4242).stream("chaos.flows"),
                       bidirectional=True)
    endpoints = {node for flow in flows for node in flow}
    plan = FaultPlan(name="sparse-equivalence", faults=(
        LinkDegradation(pairs=((1, 2), (5, 9)), loss_db=200.0,
                        start_s=2.0, stop_s=6.0),
        Partition(groups=((10, 11, 12), (20, 21, 22)),
                  start_s=3.0, stop_s=7.0),
    ))
    install_plan(net, plan, exempt=endpoints)
    attach_cbr(net, flows, interval_s=1.0, stop_s=8.0)
    net.run(until=10.0)
    return net


def test_fault_plan_run_metrics_identical():
    """Fault-driven link offsets flow through ``set_link_offsets``, which
    patches only offset-bearing rows; the run lands on the metrics recorded
    from the dense channel."""
    assert metrics_tuple(_faulted_net()) == FAULT_PLAN_METRICS
