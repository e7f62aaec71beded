"""Topology: arenas, node placement and mobility."""

from repro.topology.arena import Arena, as_arena
from repro.topology.mobility import (
    GaussMarkov3D,
    GaussMarkovConfig,
    MobilityConfig,
    RandomWalk,
    RandomWaypoint,
    mobility_model,
    mobility_model_names,
    register_mobility_model,
)
from repro.topology.placement import (
    adjacency,
    connected_uniform,
    grid,
    is_connected,
    pairwise_distances,
    uniform_random,
)
from repro.topology.vforce import VirtualForceConfig, VirtualForceControl

__all__ = [
    "Arena",
    "GaussMarkov3D",
    "GaussMarkovConfig",
    "MobilityConfig",
    "RandomWalk",
    "RandomWaypoint",
    "VirtualForceConfig",
    "VirtualForceControl",
    "adjacency",
    "as_arena",
    "connected_uniform",
    "grid",
    "is_connected",
    "mobility_model",
    "mobility_model_names",
    "pairwise_distances",
    "register_mobility_model",
    "uniform_random",
]
