"""Shared fixtures: contexts, tiny deterministic topologies, full stacks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.common import ScenarioConfig, build_network, build_protocol_network
from repro.mac.csma import CsmaMac, MacConfig
from repro.phy.channel import Channel
from repro.phy.propagation import FreeSpace, range_to_threshold_dbm
from repro.phy.radio import RadioConfig, Transceiver
from repro.sim.components import SimContext
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def ctx() -> SimContext:
    return SimContext(Simulator(), RandomStreams(42))


def line_positions(n: int, spacing: float = 200.0) -> np.ndarray:
    """n nodes on a straight line, ``spacing`` meters apart."""
    return np.array([[i * spacing, 0.0] for i in range(n)], dtype=float)


def make_phy_stack(ctx: SimContext, positions: np.ndarray,
                   range_m: float = 250.0, tx_power_dbm: float = 15.0,
                   capture_margin_db: float | None = None):
    """Channel + one transceiver per node (no MAC), for PHY-level tests."""
    model = FreeSpace()
    rx_threshold = range_to_threshold_dbm(model, tx_power_dbm, range_m)
    config = RadioConfig(tx_power_dbm=tx_power_dbm,
                         rx_threshold_dbm=rx_threshold,
                         capture_margin_db=capture_margin_db)
    channel = Channel(ctx, positions, model, tx_power_dbm,
                      reach_threshold_dbm=config.cs_threshold_dbm)
    radios = [Transceiver(ctx, i, channel, config) for i in range(len(positions))]
    return channel, radios, config


def make_mac_stack(ctx: SimContext, positions: np.ndarray,
                   mac_config: MacConfig | None = None, range_m: float = 250.0):
    """Channel + transceivers + CSMA MACs, for MAC-level tests."""
    channel, radios, radio_config = make_phy_stack(ctx, positions, range_m=range_m)
    mac_config = mac_config if mac_config is not None else MacConfig()
    macs = [CsmaMac(ctx, i, radio, mac_config) for i, radio in enumerate(radios)]
    return channel, radios, macs


def line_network(protocol: str, n: int = 5, spacing: float = 200.0,
                 range_m: float = 250.0, seed: int = 1,
                 protocol_config=None, obs=None):
    """A full stack on a line topology running the named protocol."""
    scenario = ScenarioConfig(
        n_nodes=n,
        positions=line_positions(n, spacing),
        range_m=range_m,
        seed=seed,
    )
    return build_protocol_network(protocol, scenario,
                                  protocol_config=protocol_config, obs=obs)
