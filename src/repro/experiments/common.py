"""Scenario assembly shared by all experiments, examples and tests.

:func:`build_network` wires a complete stack for every node — transceiver,
CSMA MAC, one network-protocol entity — on a shared channel over a generated
topology, and returns a :class:`Network` handle exposing the simulator, the
metrics collector and every layer for inspection.

Protocol choice is a factory, so the same scenario runs under counter-1
flooding, SSAF, Routeless Routing, AODV or Gradient Routing with identical
placement, traffic and RNG streams (common random numbers: paired
comparisons differ only in the protocol).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from repro.app.cbr import CbrConfig, CbrSource
from repro.mac.csma import CsmaMac, MacConfig
from repro.net.base import NetworkProtocol
from repro.obs.observe import Observability
from repro.phy.channel import Channel
from repro.phy.energy import EnergyMeter, EnergyModel
from repro.phy.propagation import FreeSpace, PropagationModel, range_to_threshold_dbm
from repro.phy.radio import RadioConfig, Transceiver
from repro.sim.components import SimContext
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.stats.metrics import MetricsCollector
from repro.topology.arena import Arena
from repro.topology.placement import connected_uniform

__all__ = [
    "ScenarioConfig",
    "Network",
    "ProtocolFactory",
    "build_network",
    "build_protocol_network",
    "pick_flows",
    "attach_cbr",
    "paper_scale",
    "large_scale",
    "quick_scale",
    "PROTOCOLS",
]

#: ``(ctx, node_id, mac, metrics) -> NetworkProtocol``
ProtocolFactory = Callable[[SimContext, int, CsmaMac, MetricsCollector], NetworkProtocol]


def paper_scale() -> bool:
    """True when the REPRO_PAPER_SCALE env var asks for full-size runs."""
    return os.environ.get("REPRO_PAPER_SCALE", "") not in ("", "0", "false")


def large_scale() -> bool:
    """True when REPRO_LARGE_SCALE asks for the 10k-node scaling cell
    (``repro campaign scaling --large``); quick CI leaves it unset."""
    return os.environ.get("REPRO_LARGE_SCALE", "") not in ("", "0", "false")


def quick_scale() -> bool:
    """True when REPRO_QUICK asks for smoke-test-sized runs
    (``repro campaign NAME --quick``): fewer cells, fewer seeds, shorter
    durations — enough to exercise every code path, not enough to plot."""
    return os.environ.get("REPRO_QUICK", "") not in ("", "0", "false")


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """One simulated deployment: terrain, density, range, propagation,
    reception model and seed.  Everything an experiment varies lives
    here; everything else is derived (e.g. the receive threshold from
    the requested transmission range)."""
    n_nodes: int = 100
    width_m: float = 1000.0
    height_m: float = 1000.0
    #: Altitude extent; ``None`` keeps the scenario 2-D, a value (even 0.0)
    #: makes positions ``(N, 3)`` — see :class:`repro.topology.Arena`.
    depth_m: Optional[float] = None
    range_m: float = 250.0
    seed: int = 1
    tx_power_dbm: float = 15.0
    propagation: PropagationModel = field(default_factory=FreeSpace)
    cs_margin_db: float = 6.0
    positions: Optional[np.ndarray] = None  # override the random placement
    with_energy: bool = False
    #: Use the SINR reception model instead of simple collisions.
    sinr_model: bool = False
    #: Per-link log-normal shadowing (dB std-dev); 0 disables.
    shadowing_sigma_db: float = 0.0
    #: Draw each link direction independently: creates unidirectional links.
    shadowing_asymmetric: bool = False

    @property
    def arena(self) -> Arena:
        """The deployment box as an :class:`~repro.topology.Arena`."""
        return Arena(self.width_m, self.height_m, self.depth_m)

    def radio_config(self) -> RadioConfig:
        rx_threshold = range_to_threshold_dbm(
            self.propagation, self.tx_power_dbm, self.range_m
        )
        return RadioConfig(
            tx_power_dbm=self.tx_power_dbm,
            rx_threshold_dbm=rx_threshold,
            cs_margin_db=self.cs_margin_db,
            sinr_model=self.sinr_model,
        )


@dataclass
class Network:
    """Everything about one assembled simulation scenario."""

    ctx: SimContext
    scenario: ScenarioConfig
    positions: np.ndarray
    channel: Channel
    radios: list[Transceiver]
    macs: list[CsmaMac]
    protocols: list[NetworkProtocol]
    metrics: MetricsCollector
    energy: list[EnergyMeter] = field(default_factory=list)
    sources: list[CbrSource] = field(default_factory=list)
    #: Observability bundle when the scenario was built with one (also
    #: reachable as ``ctx.obs``); ``None`` means collection was off.
    obs: Observability | None = None

    @property
    def simulator(self) -> Simulator:
        return self.ctx.simulator

    def run(self, until: float) -> None:
        self.simulator.run(until=until)

    def summary(self):
        return self.metrics.summary(self.channel)

    @property
    def rx_threshold_dbm(self) -> float:
        return self.scenario.radio_config().rx_threshold_dbm


def build_network(
    protocol_factory: ProtocolFactory,
    scenario: ScenarioConfig,
    mac_config: MacConfig | None = None,
    obs: Observability | None = None,
) -> Network:
    """Assemble the full stack for every node of the scenario."""
    streams = RandomStreams(scenario.seed)
    ctx = SimContext(
        simulator=Simulator(),
        streams=streams,
        obs=obs,
    )

    if scenario.positions is not None:
        positions = np.asarray(scenario.positions, dtype=float)
        if len(positions) != scenario.n_nodes:
            scenario = replace(scenario, n_nodes=len(positions))
    else:
        positions = connected_uniform(
            scenario.n_nodes,
            scenario.arena,
            range_m=scenario.range_m,
            rng=streams.stream("placement"),
        )

    radio_config = scenario.radio_config()
    channel = Channel(
        ctx,
        positions,
        scenario.propagation,
        tx_power_dbm=scenario.tx_power_dbm,
        reach_threshold_dbm=radio_config.cs_threshold_dbm,
        shadowing_sigma_db=scenario.shadowing_sigma_db,
        shadowing_asymmetric=scenario.shadowing_asymmetric,
    )
    mac_config = mac_config if mac_config is not None else MacConfig()
    metrics = MetricsCollector()

    radios: list[Transceiver] = []
    macs: list[CsmaMac] = []
    protocols: list[NetworkProtocol] = []
    meters: list[EnergyMeter] = []
    for node_id in range(len(positions)):
        meter = EnergyMeter(model=EnergyModel()) if scenario.with_energy else None
        radio = Transceiver(ctx, node_id, channel, radio_config, energy=meter)
        mac = CsmaMac(ctx, node_id, radio, mac_config)
        protocol = protocol_factory(ctx, node_id, mac, metrics)
        radios.append(radio)
        macs.append(mac)
        protocols.append(protocol)
        if meter is not None:
            meters.append(meter)

    return Network(
        ctx=ctx,
        scenario=scenario,
        positions=positions,
        channel=channel,
        radios=radios,
        macs=macs,
        protocols=protocols,
        metrics=metrics,
        energy=meters,
        obs=obs,
    )


#: Protocols runnable by name through :func:`build_protocol_network`.
PROTOCOLS = ("counter1", "ssaf", "blind", "routeless", "aodv", "gradient", "dsr", "dsdv", "geoflood")


def build_protocol_network(
    protocol: str,
    scenario: ScenarioConfig,
    protocol_config=None,
    mac_config: MacConfig | None = None,
    obs: Observability | None = None,
) -> Network:
    """Assemble a network running the named protocol with its idiomatic MAC.

    SSAF pairs with the MAC *priority* queue (the paper couples them: short
    election backoffs also jump the intra-node queue); everything else uses
    FIFO.  ``protocol_config`` overrides the protocol's config object where
    one exists.
    """
    # Imported here: protocols sit above this module in the layering.
    from repro.net.aodv import Aodv
    from repro.net.dsdv import Dsdv
    from repro.net.dsr import Dsr
    from repro.net.flooding import SSAF, BlindFlooding, Counter1Flooding
    from repro.net.geoflood import LocationFlooding
    from repro.net.gradient import GradientRouting
    from repro.net.routeless import RoutelessRouting

    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; choose from {PROTOCOLS}")

    if mac_config is None:
        mac_config = MacConfig(priority_queue=(protocol in ("ssaf", "geoflood")))

    rx_threshold = scenario.radio_config().rx_threshold_dbm

    def factory(ctx, node_id, mac, metrics):
        if protocol == "counter1":
            return Counter1Flooding(ctx, node_id, mac, config=protocol_config,
                                    metrics=metrics)
        if protocol == "blind":
            return BlindFlooding(ctx, node_id, mac, config=protocol_config,
                                 metrics=metrics)
        if protocol == "ssaf":
            if protocol_config is not None:
                return SSAF(ctx, node_id, mac, config=protocol_config, metrics=metrics)
            return SSAF(ctx, node_id, mac, metrics=metrics,
                        rx_threshold_dbm=rx_threshold)
        if protocol == "routeless":
            return RoutelessRouting(ctx, node_id, mac, config=protocol_config,
                                    metrics=metrics)
        if protocol == "aodv":
            return Aodv(ctx, node_id, mac, config=protocol_config, metrics=metrics)
        if protocol == "dsr":
            return Dsr(ctx, node_id, mac, config=protocol_config, metrics=metrics)
        if protocol == "dsdv":
            return Dsdv(ctx, node_id, mac, config=protocol_config, metrics=metrics)
        if protocol == "geoflood":
            return LocationFlooding(ctx, node_id, mac, mac.radio.channel,
                                    config=protocol_config, metrics=metrics,
                                    range_m=scenario.range_m)
        return GradientRouting(ctx, node_id, mac, config=protocol_config,
                               metrics=metrics)

    return build_network(factory, scenario, mac_config=mac_config, obs=obs)


def pick_flows(
    n_nodes: int,
    n_flows: int,
    rng: np.random.Generator,
    bidirectional: bool = False,
    distinct_endpoints: bool = True,
) -> list[tuple[int, int]]:
    """Random source→destination flows.

    ``bidirectional=True`` mirrors each pair (the Figures 3-4 traffic
    pattern); ``distinct_endpoints`` keeps every endpoint unique across flows
    so the Figure 4 exemption set ("all nodes but those that generate and
    receive CBR traffic") is well defined.
    """
    flows: list[tuple[int, int]] = []
    used: set[int] = set()
    attempts = 0
    while len(flows) < n_flows:
        attempts += 1
        if attempts > 10000:
            raise RuntimeError("could not pick enough distinct flows")
        src, dst = (int(v) for v in rng.choice(n_nodes, size=2, replace=False))
        if distinct_endpoints and (src in used or dst in used):
            continue
        flows.append((src, dst))
        used.update((src, dst))
    if bidirectional:
        flows = flows + [(dst, src) for src, dst in flows]
    return flows


def attach_cbr(
    network: Network,
    flows: Sequence[tuple[int, int]],
    interval_s: float,
    start_s: float = 0.0,
    stop_s: float | None = None,
    start_jitter_s: float | None = None,
) -> list[CbrSource]:
    """One CBR source per flow.  Jitter defaults to one interval so the
    sources spread over the cadence instead of phase-locking."""
    if start_jitter_s is None:
        start_jitter_s = interval_s
    config = CbrConfig(
        interval_s=interval_s,
        start_s=start_s,
        stop_s=stop_s,
        start_jitter_s=start_jitter_s,
    )
    sources = [
        CbrSource(network.ctx, network.protocols[src], dst, config)
        for src, dst in flows
    ]
    network.sources.extend(sources)
    return sources
