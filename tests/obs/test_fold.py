"""The ledger-derived metric families fold from ledger rows on read.

Hooks only append rows; ``snapshot()`` and any read through
``Observability.registry`` fold the rows recorded since the last fold.  A
fold taken mid-run followed by more events must land exactly where one
fold at the end does.
"""

import json

import numpy as np

from repro.experiments.common import (
    ScenarioConfig,
    attach_cbr,
    build_protocol_network,
)
from repro.faults import install_plan, mixed_chaos_plan
from repro.obs.observe import Observability
from repro.obs.summary import summarize


def observed_network(protocol: str = "counter1"):
    rng = np.random.default_rng(5)
    positions = rng.uniform(0.0, 600.0, size=(16, 2))
    obs = Observability()
    net = build_protocol_network(
        protocol,
        ScenarioConfig(n_nodes=16, positions=positions, range_m=250.0,
                       seed=3),
        obs=obs)
    install_plan(net, mixed_chaos_plan(16, exempt=(0, 15)), exempt={0, 15})
    attach_cbr(net, [(0, 15), (15, 0)], interval_s=0.25, stop_s=8.0)
    return net, obs


def test_successive_snapshots_are_equal():
    net, obs = observed_network()
    net.run(until=10.0)
    first = json.dumps(obs.snapshot())
    assert json.dumps(obs.snapshot()) == first


def test_mid_run_snapshot_then_more_events_matches_one_final_fold():
    for protocol in ("counter1", "routeless"):
        net, obs = observed_network(protocol)
        net.run(until=4.0)
        early = obs.snapshot()
        rows_early = len(obs.ledger)
        net.run(until=10.0)
        assert len(obs.ledger) > rows_early
        final = json.dumps(obs.snapshot())

        net_once, obs_once = observed_network(protocol)
        net_once.run(until=10.0)
        assert json.dumps(obs_once.snapshot()) == final
        assert json.dumps(early) != final


def test_registry_read_folds_without_a_snapshot():
    net, obs = observed_network()
    net.run(until=10.0)
    summary = json.dumps(summarize(obs), sort_keys=True)
    tx = obs.registry.get("repro_tx_frames_total").describe()["samples"]
    assert sum(tx.values()) == net.channel.tx_count
    drops = obs.registry.get("repro_drops_total").describe()["samples"]
    assert sum(drops.values()) == obs.ledger.total_drops()

    fresh_net, fresh = observed_network()
    fresh_net.run(until=10.0)
    fresh.snapshot()
    assert json.dumps(summarize(fresh), sort_keys=True) == summary
