"""Miniature versions of the paper's headline claims.

Each test runs a scaled-down experiment and asserts the *qualitative* result
the corresponding figure shows.  The full-size sweeps live in benchmarks/.
"""

import pytest

from repro.experiments.common import (
    ScenarioConfig,
    attach_cbr,
    build_protocol_network,
    pick_flows,
)
from repro.experiments.fig3_rr_vs_aodv import Fig3Config, run_one
from repro.experiments.fig4_failures import Fig4Config, run_cell
from repro.sim.rng import RandomStreams


def flooding_run(protocol, interval_s, seed):
    scenario = ScenarioConfig(n_nodes=50, width_m=700, height_m=700,
                              range_m=250, seed=seed)
    net = build_protocol_network(protocol, scenario)
    flows = pick_flows(50, 8, RandomStreams(seed + 99).stream("f"),
                       distinct_endpoints=False)
    attach_cbr(net, flows, interval_s=interval_s, stop_s=8.0)
    net.run(until=10.0)
    return net.summary()


def averaged(protocol, interval_s, metric, seeds=(1, 2, 3)):
    values = [getattr(flooding_run(protocol, interval_s, s), metric)
              for s in seeds]
    return sum(values) / len(values)


class TestFigure1Claims:
    """SSAF vs counter-1 flooding."""

    def test_ssaf_fewer_hops(self):
        assert averaged("ssaf", 1.0, "avg_hops") < \
            averaged("counter1", 1.0, "avg_hops")

    def test_ssaf_lower_delay(self):
        assert averaged("ssaf", 1.0, "avg_delay_s") < \
            averaged("counter1", 1.0, "avg_delay_s")

    def test_ssaf_delivery_at_least_as_good(self):
        assert averaged("ssaf", 1.0, "delivery_ratio") >= \
            averaged("counter1", 1.0, "delivery_ratio") - 0.02


class TestFigure3Claims:
    """Routeless Routing vs AODV, no failures."""

    CONFIG = Fig3Config(n_nodes=120, terrain_m=1000.0, duration_s=20.0)

    def _avg(self, protocol, metric, seeds=(1, 2)):
        values = [run_one(protocol, 3, s, self.CONFIG).metrics[metric]
                  for s in seeds]
        return sum(values) / len(values)

    def test_both_deliver_nearly_everything(self):
        assert self._avg("routeless", "delivery_ratio") > 0.95
        assert self._avg("aodv", "delivery_ratio") > 0.95

    def test_routeless_has_higher_delay(self):
        # "Routeless Routing takes more time to make the routing decision."
        assert self._avg("routeless", "avg_delay_s") > \
            self._avg("aodv", "avg_delay_s")

    def test_routeless_routes_are_no_longer(self):
        # "packets in Routeless Routing take on average fewer hops"
        assert self._avg("routeless", "avg_hops") <= \
            self._avg("aodv", "avg_hops") + 0.1


class TestFigure4Claims:
    """Routeless Routing vs AODV with transceiver failures."""

    CONFIG = Fig4Config(
        base=Fig3Config(n_nodes=120, terrain_m=1000.0, duration_s=30.0),
        n_pairs=3)

    def _run(self, protocol, failure, seeds=(1, 2)):
        summaries = [run_cell(protocol, failure, s, self.CONFIG)
                     for s in seeds]
        mean = lambda metric: sum(x.metrics[metric] for x in summaries) / len(summaries)
        return mean

    def test_aodv_cost_grows_with_failures(self):
        healthy = self._run("aodv", 0.0)
        failing = self._run("aodv", 0.10)
        assert failing("mac_packets") > 1.4 * healthy("mac_packets")
        assert failing("avg_delay_s") > healthy("avg_delay_s")

    def test_routeless_cost_stays_flat(self):
        healthy = self._run("routeless", 0.0)
        failing = self._run("routeless", 0.10)
        assert failing("mac_packets") < 1.25 * healthy("mac_packets")
        assert failing("avg_delay_s") < 2.0 * healthy("avg_delay_s")

    def test_routeless_delivery_resilient(self):
        failing = self._run("routeless", 0.10)
        assert failing("delivery_ratio") > 0.95

    def test_aodv_uses_more_packets_under_failures(self):
        # The Figure 4 ordering: with failures, AODV's control storms push
        # its MAC packet count above Routeless Routing's.
        aodv = self._run("aodv", 0.10)
        rr = self._run("routeless", 0.10)
        assert aodv("mac_packets") > rr("mac_packets")


class TestFigure2Claim:
    """Congestion avoidance: A→B relays shift off the congested centre."""

    @pytest.mark.slow
    def test_corridor_usage_drops_under_cross_traffic(self):
        from repro.experiments.fig2_congestion import Fig2Config, run_fig2

        # The benchmark-validated parameters (the defaults).
        result = run_fig2(Fig2Config())
        assert result.delivery_alone > 0.3
        assert result.corridor_congested < result.corridor_alone
