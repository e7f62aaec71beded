"""Discrete-event simulation kernel (the SENSE substitute's foundation)."""

from repro.sim.components import Component, Outport, PortNotConnected, SimContext
from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import Event, EventHandle
from repro.sim.rng import RandomStreams

__all__ = [
    "Component",
    "Event",
    "EventHandle",
    "Outport",
    "PortNotConnected",
    "RandomStreams",
    "SimContext",
    "SimulationError",
    "Simulator",
]
