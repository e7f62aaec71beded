"""Dense N×N link-budget arithmetic, kept as a test oracle.

The channel stores its link budget as per-source CSR rows built from grid
candidates.  This module recomputes the same budget the brute-force way —
every pair, one matrix pass — so tests can check the rows bit for bit:
``(diff**2).sum(-1)`` distances, ``+ shadowing`` then ``+ offsets`` on the
mean power, the reach floor widened by the fading headroom, self excluded.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.phy.propagation import SPEED_OF_LIGHT

#: Fade headroom the channel adds to the reach floor for stochastic models.
FADE_HEADROOM_DB = 10.0


def reference_matrices(channel, offsets: Mapping | None = None):
    """``(distance, power, delay)`` N×N matrices for the channel's current
    positions, shadowing draw and the given ``{(i, j): db}`` offsets."""
    positions = channel.positions
    diff = positions[:, None, :] - positions[None, :, :]
    distance = np.sqrt((diff**2).sum(axis=-1))
    power = channel.model.rx_power_dbm(channel.tx_power_dbm, distance)
    if channel.shadowing_db is not None:
        power = power + channel.shadowing_db
    if offsets:
        matrix = np.zeros_like(power)
        for (i, j), db in offsets.items():
            matrix[i, j] = db
        power = power + matrix
    if channel._propagation_delay:
        delay = distance / SPEED_OF_LIGHT
    else:
        delay = np.zeros_like(distance)
    return distance, power, delay


def reference_rows(channel, offsets: Mapping | None = None):
    """Per-source ``(reach, powers, delays)`` lists, as the rows should be."""
    _, power, delay = reference_matrices(channel, offsets)
    floor = channel.reach_threshold_dbm
    if channel.model.stochastic:
        floor -= FADE_HEADROOM_DB
    reachable = power >= floor
    np.fill_diagonal(reachable, False)
    reach = [np.flatnonzero(row) for row in reachable]
    powers = [power[i, r] for i, r in enumerate(reach)]
    delays = [delay[i, r] for i, r in enumerate(reach)]
    return reach, powers, delays


def assert_matches_reference(channel, offsets: Mapping | None = None) -> None:
    """Every row of ``channel`` equals the dense reference, bitwise."""
    reach, powers, delays = reference_rows(channel, offsets)
    assert channel.n_nodes == len(reach)
    for i in range(channel.n_nodes):
        assert np.array_equal(channel.reach[i], reach[i]), i
        assert np.array_equal(channel._reach_power_arrays[i], powers[i]), i
        assert channel._reach_ids[i] == reach[i].tolist(), i
        assert channel._reach_powers[i] == powers[i].tolist(), i
        assert channel._reach_delays[i] == delays[i].tolist(), i


def reference_neighbors(channel, node_id: int, threshold_dbm: float,
                        offsets: Mapping | None = None) -> np.ndarray:
    """Ids whose mean power from ``node_id`` clears ``threshold_dbm``."""
    _, power, _ = reference_matrices(channel, offsets)
    ids = np.flatnonzero(power[node_id] >= threshold_dbm)
    return ids[ids != node_id]


def reference_distance(channel, i: int, j: int) -> float:
    distance, _, _ = reference_matrices(channel)
    return float(distance[i, j])
