"""Microbenchmarks for the simulation substrate's hot paths.

These are genuine pytest-benchmark measurements (many rounds): the event
loop, timer cancellation, channel fan-out, backoff policy draws and table
updates are the operations the figure sweeps execute millions of times.
"""

import numpy as np
import pytest

from repro.core.backoff import BackoffInput, HopCountBackoff, SignalStrengthBackoff
from repro.mac.frame import Frame
from repro.net.routeless import ActiveNodeTable
from repro.phy.propagation import FreeSpace
from repro.sim.engine import Simulator


def test_event_loop_throughput(benchmark):
    """Schedule-and-fire 10k chained events."""

    def run():
        sim = Simulator()

        def chain(n):
            if n:
                sim.schedule(0.001, chain, n - 1)

        sim.schedule(0.0, chain, 10_000)
        sim.run()
        return sim.events_processed

    assert benchmark(run) == 10_001


def test_timer_cancellation_storm(benchmark):
    """Arm 10k timers, cancel 90% — the election workload's signature."""

    def run():
        sim = Simulator()
        fired = []
        handles = [sim.schedule(1.0 + i * 1e-6, fired.append, i)
                   for i in range(10_000)]
        for i, handle in enumerate(handles):
            if i % 10:
                handle.cancel()
        sim.run()
        return len(fired)

    assert benchmark(run) == 1_000


def test_channel_fanout(benchmark):
    """One broadcast delivered to ~80 in-range receivers, repeated."""
    from repro.sim.components import SimContext
    from repro.sim.rng import RandomStreams
    from repro.phy.channel import Channel
    from repro.phy.radio import RadioConfig, Transceiver
    from repro.phy.propagation import range_to_threshold_dbm

    ctx = SimContext()
    rng = np.random.default_rng(0)
    positions = rng.uniform(0, 300, size=(80, 2))
    model = FreeSpace()
    threshold = range_to_threshold_dbm(model, 15.0, 250.0)
    config = RadioConfig(tx_power_dbm=15.0, rx_threshold_dbm=threshold)
    channel = Channel(ctx, positions, model, 15.0, config.cs_threshold_dbm)
    radios = [Transceiver(ctx, i, channel, config) for i in range(80)]
    payload = Frame(src=0, dst=None, seq=0, payload=None, size_bytes=100)

    def run():
        radios[0].transmit(payload, 0.001)
        ctx.simulator.run()

    benchmark(run)
    assert channel.tx_count >= 1


def test_link_budget_precompute(benchmark):
    """A full link-budget rebuild for a 500-node (paper-scale) network."""
    from repro.phy.channel import Channel
    from repro.phy.propagation import range_to_threshold_dbm
    from repro.sim.components import SimContext

    rng = np.random.default_rng(0)
    positions = rng.uniform(0, 2000, size=(500, 2))
    model = FreeSpace()
    channel = Channel(SimContext(), positions, model, 15.0,
                      range_to_threshold_dbm(model, 15.0, 250.0))

    benchmark(channel.set_positions, positions)
    assert len(channel.reach) == 500


def test_hopcount_backoff_draws(benchmark):
    policy = HopCountBackoff(lam=0.05)
    rng = np.random.default_rng(0)
    observed = BackoffInput(rng=rng, table_hops=3, expected_hops=4)

    def run():
        return [policy.delay(observed) for _ in range(1_000)]

    delays = benchmark(run)
    assert len(delays) == 1_000


def test_signal_strength_backoff_draws(benchmark):
    policy = SignalStrengthBackoff(lam=0.05, rx_threshold_dbm=-64.0)
    rng = np.random.default_rng(0)
    observed = BackoffInput(rng=rng, rx_power_dbm=-50.0)

    def run():
        return [policy.delay(observed) for _ in range(1_000)]

    assert len(benchmark(run)) == 1_000


def test_active_node_table_updates(benchmark):
    def run():
        table = ActiveNodeTable()
        for i in range(10_000):
            table.update(i % 64, (i * 7) % 12, now=i * 0.001)
        return len(table)

    assert benchmark(run) == 64
