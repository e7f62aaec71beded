"""Golden equivalence: the optimized kernel + channel reproduce the seed
implementation's results exactly.

The constants below were recorded by running the pre-optimization
(dataclass-Event kernel, per-transmit link-budget slicing) implementation at
commit b9a03f3 on the fixed fig1 cells.  The optimized substrate must
produce the *same events in the same order*, so every counter and metric
must match — integer metrics exactly, float metrics to within strict
tolerance (they are bitwise-identical on the recording machine; the
tolerance only absorbs libm differences across platforms, not algorithmic
drift).

If an intentional behaviour change ever shifts these numbers, re-record
them in the same way and say so in the commit.
"""

import pytest

from repro.experiments.common import (
    ScenarioConfig,
    attach_cbr,
    build_protocol_network,
    pick_flows,
)
from repro.experiments import fig4_failures
from repro.experiments.fig1_ssaf import Fig1Config, campaign_spec
from repro.sim.rng import RandomStreams

# (protocol, seed) -> (events_processed, tx_count, delivered, generated,
#                      avg_delay_s, avg_hops, airtime_s)
GOLDEN = {
    ("counter1", 1): (166591, 2037, 149, 150,
                      0.023124218812259595, 2.7114093959731544, 4.7584319999999485),
    ("counter1", 2): (154226, 2018, 140, 150,
                      0.03846239466552617, 3.414285714285714, 4.714047999999955),
    ("ssaf", 1): (158582, 1988, 150, 150,
                  0.012406270599977922, 2.36, 4.643967999999965),
    ("ssaf", 2): (153077, 2042, 150, 150,
                  0.024220388198449964, 3.0, 4.770111999999947),
}

#: The same fig1 cells under the SINR reception model, whose interference
#: sum adds the live receptions' linear powers in arrival order: a change in
#: how a radio keeps its live receptions must leave these floats untouched.
SINR_GOLDEN = {
    ("counter1", 1): (177213, 2142, 149, 150,
                      0.026276224872874135, 2.838926174496644, 5.003711999999914),
    ("ssaf", 1): (176491, 2165, 150, 150,
                  0.016028735286566682, 2.5866666666666664, 5.0574399999999065),
}

#: Figure 4 cells at 10 % failure (4 pairs, seed 1, default ``Fig4Config``):
#: the duty-cycle outage processes draw from named per-node streams, so a
#: change in how a failure reaches a cell must leave these metrics untouched.
FIG4_GOLDEN = {
    # Re-recorded when AODV began releasing its buffered data as soon as a
    # route is learned in passing, in FIFO order ahead of later packets.
    "aodv": dict(avg_delay_s=0.021391523716045104, avg_hops=3.2363636363636363,
                 delivered=275, generated=296,
                 delivery_ratio=0.9290540540540541, mac_packets=7791),
    "dsr": dict(avg_delay_s=0.022820412619171417, avg_hops=3.562962962962963,
                delivered=270, generated=296,
                delivery_ratio=0.9121621621621622, mac_packets=9912),
    "gradient": dict(avg_delay_s=0.01995179694213736, avg_hops=3.0,
                     delivered=294, generated=296,
                     delivery_ratio=0.9932432432432432, mac_packets=4012),
    "routeless": dict(avg_delay_s=0.03735200825221562,
                      avg_hops=3.006779661016949, delivered=295,
                      generated=296, delivery_ratio=0.9966216216216216,
                      mac_packets=3459),
}

INTERVAL_S = 1.0
def EXACT(value):
    return pytest.approx(value, rel=1e-12, abs=0.0)


def run_cell(protocol: str, seed: int, sinr_model: bool = False):
    config = Fig1Config()
    scenario = ScenarioConfig(
        n_nodes=config.n_nodes, width_m=config.terrain_m,
        height_m=config.terrain_m, range_m=config.range_m, seed=seed,
        sinr_model=sinr_model)
    net = build_protocol_network(protocol, scenario)
    flows = pick_flows(config.n_nodes, config.n_connections,
                       RandomStreams(seed + 7777).stream("fig1.flows"),
                       distinct_endpoints=False)
    attach_cbr(net, flows, interval_s=INTERVAL_S, stop_s=config.duration_s - 2.0)
    net.run(until=config.duration_s)
    return net


def assert_matches(net, golden):
    events, tx, delivered, generated, delay, hops, airtime = golden
    summary = net.summary()

    assert net.simulator.events_processed == events
    assert net.channel.tx_count == tx
    assert net.channel.tx_count_by_kind["data"] == tx
    assert summary.delivered == delivered
    assert summary.generated == generated
    assert summary.avg_delay_s == EXACT(delay)
    assert summary.avg_hops == EXACT(hops)
    assert net.channel.airtime_s == EXACT(airtime)


@pytest.mark.parametrize("protocol,seed", sorted(GOLDEN))
def test_fig1_cell_matches_seed_implementation(protocol, seed):
    assert_matches(run_cell(protocol, seed), GOLDEN[(protocol, seed)])


@pytest.mark.parametrize("protocol,seed", sorted(SINR_GOLDEN))
def test_fig1_sinr_cell_matches_recording(protocol, seed):
    assert_matches(run_cell(protocol, seed, sinr_model=True),
                   SINR_GOLDEN[(protocol, seed)])


@pytest.mark.parametrize("protocol", sorted(FIG4_GOLDEN))
def test_fig4_failure_cell_matches_recording(protocol):
    result = fig4_failures.run_cell(protocol, 0.10, 1,
                                    fig4_failures.Fig4Config())
    for name, value in FIG4_GOLDEN[protocol].items():
        assert result.metrics[name] == EXACT(value), name


@pytest.mark.slow
def test_parallel_sweep_matches_golden_metrics(tmp_path):
    """The multiprocess campaign path hits the same golden numbers: worker
    processes run the optimized substrate and must agree with both the
    serial path and the seed recording."""
    from repro.campaign import run_spec

    config = Fig1Config(intervals_s=(INTERVAL_S,), seeds=(1, 2))
    spec = campaign_spec(config)
    outcome = run_spec(spec, workers=2, cache_dir=None,
                       campaign_dir=str(tmp_path / "campaign"))
    assert not outcome.quarantined

    for protocol, series in outcome.results.items():
        samples = series._samples[INTERVAL_S]  # one MetricsSummary per seed
        assert len(samples) == 2
        for seed, summary in zip((1, 2), samples):
            _events, tx, delivered, generated, delay, hops, _air = \
                GOLDEN[(protocol, seed)]
            assert summary.mac_packets == tx
            assert summary.delivered == delivered
            assert summary.generated == generated
            assert summary.avg_delay_s == EXACT(delay)
            assert summary.avg_hops == EXACT(hops)
