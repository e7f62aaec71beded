"""Tests for the duty-cycle failure process (Figure 4's workload) on a bare
PHY stack, and for how a fault plan applies it to a network; the rest of
its installation is covered in ``tests/faults/test_injector.py``."""

import numpy as np
import pytest

from repro.faults import DutyCycleFailure, DutyCycleOutage, FaultPlan, install_plan
from tests.conftest import line_network, line_positions, make_phy_stack


class TestDutyCycleFailure:
    def test_zero_fraction_never_fails(self, ctx):
        channel, radios, _ = make_phy_stack(ctx, line_positions(1))
        failure = DutyCycleFailure(ctx, radios[0], off_fraction=0.0)
        ctx.simulator.run(until=100.0)
        assert failure.outages == 0
        assert radios[0].is_on

    def test_long_run_off_fraction_approximates_target(self, ctx):
        channel, radios, _ = make_phy_stack(ctx, line_positions(1))
        failure = DutyCycleFailure(ctx, radios[0], off_fraction=0.10,
                                   mean_cycle_s=2.0)
        ctx.simulator.run(until=4000.0)
        assert failure.time_off / 4000.0 == pytest.approx(0.10, rel=0.25)
        assert failure.outages > 100

    def test_radio_actually_toggles(self, ctx):
        channel, radios, _ = make_phy_stack(ctx, line_positions(1))
        DutyCycleFailure(ctx, radios[0], off_fraction=0.5, mean_cycle_s=1.0)
        states = set()
        for _ in range(2000):
            if not ctx.simulator.step():
                break
            states.add(radios[0].is_on)
            if states == {True, False}:
                break
        assert states == {True, False}

    def test_invalid_fraction(self, ctx):
        channel, radios, _ = make_phy_stack(ctx, line_positions(1))
        with pytest.raises(ValueError):
            DutyCycleFailure(ctx, radios[0], off_fraction=1.0)
        with pytest.raises(ValueError):
            DutyCycleFailure(ctx, radios[0], off_fraction=-0.1)

    def test_invalid_cycle(self, ctx):
        channel, radios, _ = make_phy_stack(ctx, line_positions(1))
        with pytest.raises(ValueError):
            DutyCycleFailure(ctx, radios[0], off_fraction=0.1, mean_cycle_s=0.0)


class TestApplyFailures:
    def test_exempt_nodes_get_no_process(self):
        net = line_network("counter1", n=5)
        controller = install_plan(net, FaultPlan(faults=(
            DutyCycleOutage(off_fraction=0.1),)), exempt={0, 4})
        covered = {p.radio.node_id for p in controller.duty_cycles}
        assert covered == {1, 2, 3}
