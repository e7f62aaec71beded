"""FaultController behaviors on small, hand-positioned networks."""

import numpy as np
import pytest

from repro.experiments.common import (
    ScenarioConfig,
    attach_cbr,
    build_protocol_network,
)
from repro.faults import (
    ClockSkew,
    DutyCycleOutage,
    EnergyDepletion,
    FaultPlan,
    LinkDegradation,
    NodeCrash,
    PacketCorruption,
    Partition,
    install_plan,
)
from repro.obs.ledger import DropReason
from repro.obs.observe import Observability

#: A 4-node chain with only adjacent links in range (range 250 m).
CHAIN = np.array([[0.0, 0.0], [150.0, 0.0], [300.0, 0.0], [450.0, 0.0]])


def chain_net(protocol="counter1", obs=None, seed=1, with_energy=False):
    scenario = ScenarioConfig(n_nodes=4, positions=CHAIN, range_m=250.0,
                              seed=seed, with_energy=with_energy)
    return build_protocol_network(protocol, scenario, obs=obs)


def fault_events(obs, kind=None):
    entries = [e for e in obs.ledger.entries if e.layer == "fault"]
    if kind is not None:
        entries = [e for e in entries if e.detail.get("kind") == kind]
    return entries


class TestNodeCrash:
    def test_crash_and_recover(self):
        obs = Observability()
        net = chain_net(obs=obs)
        install_plan(net, FaultPlan(faults=(
            NodeCrash(nodes=(1,), start_s=1.0, recover_s=2.0),)))
        net.run(until=3.0)
        assert net.radios[1].is_on
        actions = [e.detail["action"] for e in fault_events(obs, "node_crash")]
        assert actions == ["off", "on"]

    def test_crash_without_recovery_stays_down(self):
        net = chain_net()
        install_plan(net, FaultPlan(faults=(
            NodeCrash(nodes=(1,), start_s=1.0),)))
        net.run(until=3.0)
        assert not net.radios[1].is_on

    def test_crashed_relay_breaks_the_chain(self):
        net = chain_net()
        install_plan(net, FaultPlan(faults=(NodeCrash(nodes=(1,),),)))
        attach_cbr(net, [(0, 3)], interval_s=1.0, stop_s=4.0)
        net.run(until=6.0)
        assert net.summary().delivered == 0

    def test_exempt_nodes_are_protected(self):
        net = chain_net()
        install_plan(net, FaultPlan(faults=(NodeCrash(nodes=(1,),),)),
                     exempt={1})
        net.run(until=1.0)
        assert net.radios[1].is_on


class TestPacketCorruption:
    def test_certain_corruption_kills_all_receptions(self):
        obs = Observability()
        net = chain_net(obs=obs)
        install_plan(net, FaultPlan(faults=(
            PacketCorruption(probability=1.0),)))
        attach_cbr(net, [(0, 1)], interval_s=1.0, stop_s=4.0)
        net.run(until=6.0)
        summary = net.summary()
        assert summary.generated > 0
        assert summary.delivered == 0
        assert obs.ledger.drop_counts()[DropReason.FAULT_CORRUPTED] > 0

    def test_corruption_window_closes(self):
        net = chain_net()
        install_plan(net, FaultPlan(faults=(
            PacketCorruption(probability=1.0, start_s=0.0, stop_s=2.0),)))
        attach_cbr(net, [(0, 1)], interval_s=1.0, stop_s=8.0)
        net.run(until=10.0)
        assert net.summary().delivered > 0
        assert net.radios[0].fault_corrupt_prob == 0.0


class TestLinkFaults:
    def test_partition_blocks_cross_group_traffic(self):
        net = chain_net()
        install_plan(net, FaultPlan(faults=(
            Partition(groups=((0, 1), (2, 3)),),)))
        attach_cbr(net, [(0, 3)], interval_s=1.0, stop_s=4.0)
        net.run(until=6.0)
        assert net.summary().delivered == 0

    def test_partition_heals_at_stop(self):
        net = chain_net()
        install_plan(net, FaultPlan(faults=(
            Partition(groups=((0, 1), (2, 3)), start_s=0.0, stop_s=1.0),)))
        attach_cbr(net, [(0, 3)], interval_s=1.0, stop_s=6.0)
        net.run(until=9.0)
        assert net.summary().delivered > 0

    def test_asymmetric_degradation_is_unidirectional(self):
        def run(flow):
            net = chain_net()
            install_plan(net, FaultPlan(faults=(
                LinkDegradation(pairs=((0, 1),), loss_db=500.0,
                                symmetric=False),)))
            attach_cbr(net, [flow], interval_s=1.0, stop_s=4.0)
            net.run(until=6.0)
            return net.summary().delivered

        assert run((0, 1)) == 0   # degraded direction severed
        assert run((1, 0)) > 0    # reverse direction untouched


class TestClockSkew:
    def test_skew_draws_and_applies_factors(self):
        net = chain_net()
        controller = install_plan(net, FaultPlan(faults=(
            ClockSkew(sigma=0.05),)))
        net.run(until=0.1)
        assert set(controller.skew_factors) == {0, 1, 2, 3}
        for node, factor in controller.skew_factors.items():
            assert factor > 0
            assert net.macs[node].time_scale == factor

    def test_skew_is_seed_deterministic(self):
        def factors():
            net = chain_net(seed=3)
            controller = install_plan(net, FaultPlan(faults=(
                ClockSkew(sigma=0.05),)))
            net.run(until=0.1)
            return dict(controller.skew_factors)

        assert factors() == factors()


class TestEnergyDepletion:
    def test_requires_energy_meters(self):
        net = chain_net(with_energy=False)
        with pytest.raises(ValueError, match="with_energy"):
            install_plan(net, FaultPlan(faults=(
                EnergyDepletion(nodes=(1,), capacity_j=1.0),)))

    def test_depletion_is_permanent(self):
        obs = Observability()
        net = chain_net(obs=obs, with_energy=True)
        controller = install_plan(net, FaultPlan(faults=(
            EnergyDepletion(nodes=(1,), capacity_j=1e-9, poll_s=0.1),)))
        attach_cbr(net, [(1, 0)], interval_s=0.5, stop_s=4.0)
        net.run(until=6.0)
        assert controller.depleted == {1}
        assert not net.radios[1].is_on
        kinds = [e.detail["action"]
                 for e in fault_events(obs, "energy_depletion")]
        assert kinds == ["off"]


class TestValidationAndWiring:
    def test_unknown_exempt_rejected(self):
        net = chain_net()
        with pytest.raises(ValueError, match="exempt"):
            install_plan(net, FaultPlan(), exempt={99})

    def test_out_of_range_node_rejected(self):
        net = chain_net()
        with pytest.raises(ValueError, match="outside"):
            install_plan(net, FaultPlan(faults=(NodeCrash(nodes=(9,),),)))

    def test_duty_cycle_mirrors_legacy_processes(self):
        net = chain_net()
        controller = install_plan(net, FaultPlan(faults=(
            DutyCycleOutage(off_fraction=0.2),)), exempt={0, 3})
        assert [p.radio.node_id for p in controller.duty_cycles] == [1, 2]
        assert [p.name for p in controller.duty_cycles] == \
            ["failure[1]", "failure[2]"]

    def test_duty_cycle_spares_exempt_endpoints(self):
        net = chain_net()
        controller = install_plan(net, FaultPlan(faults=(
            DutyCycleOutage(off_fraction=0.5, mean_cycle_s=0.5),)),
            exempt={0, 3})
        net.run(until=50.0)
        assert all(p.outages > 0 for p in controller.duty_cycles)
        assert net.radios[0].is_on and net.radios[3].is_on
