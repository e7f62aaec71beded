"""Ablation — the arbiter's contribution to election reliability.

Section 2: without the arbiter the basic election "is not guaranteed to
produce at least one local leader"; with an arbiter "eventually there will be
at least one local leader elected."

We measure the election success rate over many rounds in a lossy setting —
candidates whose radios duty-cycle off — with and without the arbiter.
"""

import pytest

from benchmarks.conftest import run_once
from repro.core.backoff import RandomBackoff
from repro.core.election import ElectionConfig, ElectionNode
from repro.faults import DutyCycleFailure
from repro.sim.components import SimContext
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from tests.conftest import line_positions, make_mac_stack

ROUNDS = 40


def election_success_rate(use_arbiter: bool, seed: int) -> float:
    ctx = SimContext(Simulator(), RandomStreams(seed))
    # One trigger plus only two candidates, each off 60% of the time: the
    # single sync packet often finds both candidates deaf; only the
    # arbiter's re-trigger can recover such a round.
    channel, radios, macs = make_mac_stack(ctx, line_positions(3, spacing=30.0))
    config = ElectionConfig(
        policy=RandomBackoff(max_delay=0.02),
        use_arbiter=use_arbiter,
        arbiter_timeout_s=0.08,
        max_retriggers=8,
    )
    nodes = [ElectionNode(ctx, i, mac, config, candidate=(i != 0))
             for i, mac in enumerate(macs)]
    for radio in radios[1:]:
        DutyCycleFailure(ctx, radio, off_fraction=0.6, mean_cycle_s=0.3)

    uids = []
    for round_no in range(ROUNDS):
        ctx.simulator.schedule((round_no + 1) * 1.0, lambda: uids.append(nodes[0].trigger()))
    ctx.simulator.run(until=ROUNDS + 5.0)
    elected = sum(1 for uid in uids if nodes[0].leader_of(uid) is not None)
    return elected / ROUNDS


def test_arbiter_raises_election_reliability(benchmark, report):
    def sweep():
        with_arbiter = sum(election_success_rate(True, s) for s in (1, 2)) / 2
        without = sum(election_success_rate(False, s) for s in (1, 2)) / 2
        return with_arbiter, without

    with_arbiter, without = run_once(benchmark, sweep)
    report("ablation_arbiter", "\n".join([
        "=== Ablation: arbiter on/off (election success over flaky candidates) ===",
        f"with arbiter:    {with_arbiter:.2%}",
        f"without arbiter: {without:.2%}",
    ]))
    assert with_arbiter > without
    assert with_arbiter > 0.85
    assert without < 0.9  # the unreliability the arbiter exists to fix
