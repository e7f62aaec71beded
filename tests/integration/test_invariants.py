"""Property-based whole-system invariants.

Hypothesis drives randomized small scenarios (topology, protocol, traffic)
through full-stack simulations and asserts properties that must hold for
*every* protocol on *every* topology — the class of bug that example-based
tests miss.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.common import (
    ScenarioConfig,
    attach_cbr,
    build_protocol_network,
)
from repro.faults import fig4_plan, install_plan
from repro.topology.arena import Arena
from repro.topology.placement import connected_uniform

PROTOCOLS = ["counter1", "ssaf", "blind", "routeless", "aodv", "gradient",
             "dsr", "dsdv", "geoflood"]

DURATION = 8.0


def run_random_scenario(protocol, n_nodes, seed, n_flows):
    rng = np.random.default_rng(seed)
    positions = connected_uniform(n_nodes, Arena(600.0, 600.0), 250.0, rng)
    scenario = ScenarioConfig(n_nodes=n_nodes, positions=positions,
                              range_m=250.0, seed=seed)
    net = build_protocol_network(protocol, scenario)
    flows = []
    for _ in range(n_flows):
        src, dst = rng.choice(n_nodes, size=2, replace=False)
        flows.append((int(src), int(dst)))
    attach_cbr(net, flows, interval_s=1.0, stop_s=DURATION - 3.0)
    net.run(until=DURATION)
    return net


@given(
    protocol=st.sampled_from(PROTOCOLS),
    n_nodes=st.integers(min_value=5, max_value=15),
    seed=st.integers(min_value=0, max_value=10_000),
    n_flows=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_universal_invariants(protocol, n_nodes, seed, n_flows):
    net = run_random_scenario(protocol, n_nodes, seed, n_flows)
    metrics = net.metrics
    summary = net.summary()

    # Conservation: you cannot deliver what was never sent.
    assert metrics.delivered <= metrics.generated
    assert 0.0 <= summary.delivery_ratio <= 1.0

    # Anything delivered required at least one transmission.
    if metrics.delivered:
        assert net.channel.tx_count >= metrics.delivered

    for delivery in metrics.deliveries:
        # Causality and sanity of per-packet records.
        assert 0.0 < delivery.delay <= DURATION
        assert 1 <= delivery.hops <= n_nodes
        # Loop freedom: no node relays the same packet twice.
        assert len(delivery.path) == len(set(delivery.path))
        # Endpoints never appear as relays of their own packet.
        assert delivery.origin not in delivery.path
        assert delivery.target not in delivery.path
        # The hop count and the relay record agree.
        assert delivery.hops == len(delivery.path) + 1


@given(
    protocol=st.sampled_from(["routeless", "aodv"]),
    seed=st.integers(min_value=0, max_value=5_000),
)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_failure_does_not_break_invariants(protocol, seed):
    """Random transceiver failures must degrade service, never corrupt it."""
    rng = np.random.default_rng(seed)
    positions = connected_uniform(12, Arena(600.0, 600.0), 250.0, rng)
    scenario = ScenarioConfig(n_nodes=12, positions=positions, seed=seed)
    net = build_protocol_network(protocol, scenario)
    src, dst = (int(v) for v in rng.choice(12, size=2, replace=False))
    install_plan(net, fig4_plan(0.2, mean_cycle_s=1.0), exempt={src, dst})
    attach_cbr(net, [(src, dst)], interval_s=0.5, stop_s=5.0)
    net.run(until=8.0)

    assert net.metrics.delivered <= net.metrics.generated
    for delivery in net.metrics.deliveries:
        assert len(delivery.path) == len(set(delivery.path))
        assert delivery.delay > 0
