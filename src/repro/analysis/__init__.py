"""Analytical models: theory-vs-simulation validation."""

from repro.analysis.theory import (
    counter1_relay_bound,
    expected_election_delay,
    free_space_range_m,
    tie_probability,
    uniform_win_probabilities,
)

__all__ = [
    "counter1_relay_bound",
    "expected_election_delay",
    "free_space_range_m",
    "tie_probability",
    "uniform_win_probabilities",
]
