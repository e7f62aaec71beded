"""Tests for the component/port model and the observing flag."""

import pytest

from repro.obs.observe import Observability
from repro.sim.components import Component, Outport, PortNotConnected, SimContext
from tests.conftest import line_network


class TestOutport:
    def test_unconnected_port_raises(self):
        port = Outport("p")
        with pytest.raises(PortNotConnected):
            port("data")

    def test_emit_on_unconnected_port_is_a_no_op(self):
        port = Outport("p")
        port.emit("data", key=1)
        assert not port.connected
        with pytest.raises(PortNotConnected):
            port("data")

    def test_single_handler(self):
        port = Outport("p")
        got = []
        port.connect(got.append)
        port("x")
        assert got == ["x"]

    def test_single_handler_is_bound_directly(self):
        port = Outport("p")
        got = []
        port.connect(got.append)
        assert port.emit == got.append
        port.emit("x")
        assert got == ["x"]

    def test_fan_out_in_connection_order(self):
        port = Outport("p")
        order = []
        port.connect(lambda v: order.append(("first", v)))
        port.connect(lambda v: order.append(("second", v)))
        port(7)
        port.emit(8)
        assert order == [("first", 7), ("second", 7),
                         ("first", 8), ("second", 8)]

    def test_fan_out_passes_keywords(self):
        port = Outport("p")
        got = []
        port.connect(lambda v, key: got.append(("a", v, key)))
        port.connect(lambda v, key: got.append(("b", v, key)))
        port.emit(1, key=2)
        assert got == [("a", 1, 2), ("b", 1, 2)]

    def test_connected_flag(self):
        port = Outport("p")
        assert not port.connected
        port.connect(lambda: None)
        assert port.connected
        port.connect(lambda: None)
        assert port.connected

    def test_port_connected_after_construction_is_rebound(self, ctx):
        class Source(Component):
            def __init__(self, ctx):
                super().__init__(ctx, "src")
                self.out = self.outport("out")

            def fire(self, value):
                self.out.emit(value)

        source = Source(ctx)
        source.fire(1)
        first, probe = [], []
        source.out.connect(first.append)
        source.fire(2)
        source.out.connect(probe.append)
        source.fire(3)
        assert first == [2, 3]
        assert probe == [3]


class TestSimContextFlags:
    def test_default_context_neither_traces_nor_observes(self):
        ctx = SimContext()
        assert ctx.observing is False
        # The packet ledger is the only per-event record: no second flag.
        assert not hasattr(ctx, "tracing")

    def test_observing_reflects_observability(self):
        obs = Observability()
        ctx = SimContext(obs=obs)
        assert ctx.observing is True
        assert ctx.obs is obs

    def test_flags_are_fixed_when_the_context_is_built(self):
        ctx = SimContext(obs=Observability())
        # A plain attribute, not a property: one read per hot-path site.
        assert "observing" in vars(ctx)


class TestComponent:
    def test_schedule_uses_context_clock(self, ctx):
        comp = Component(ctx, "c")
        assert comp.sim is ctx.simulator
        fired = []
        comp.schedule(2.0, fired.append, "x")
        ctx.simulator.run()
        assert fired == ["x"]
        assert comp.now == 2.0

    def test_rng_streams_are_per_component(self, ctx):
        a = Component(ctx, "a").rng()
        b = Component(ctx, "b").rng()
        assert a.uniform() != b.uniform() or a is not b

    def test_rng_suffix_gives_distinct_stream(self, ctx):
        comp = Component(ctx, "c")
        assert comp.rng("x") is not comp.rng("y")

    def test_outport_name_includes_component(self, ctx):
        comp = Component(ctx, "mac[2]")
        assert comp.outport("to_net").name == "mac[2].to_net"


class TestWiredNetwork:
    """A built stack sends each reception straight to the peer's method."""

    def test_reception_ports_are_bound_to_peer_methods(self):
        net = line_network("ssaf", n=3)
        for radio, mac, protocol in zip(net.radios, net.macs, net.protocols):
            assert radio.to_mac.emit == mac._on_frame
            assert radio.carrier.emit == mac._on_carrier
            assert radio.tx_done.emit == mac._on_tx_done
            assert mac.to_net.emit == protocol.on_mac_packet

    def test_per_reception_records_are_slotted(self):
        net = line_network("ssaf", n=3)
        phy_infos, mac_infos = [], []
        net.radios[1].to_mac.connect(lambda frame, info: phy_infos.append(info))
        net.macs[1].to_net.connect(lambda packet, rx: mac_infos.append(rx))
        net.protocols[0].send_data(2)
        net.run(until=5.0)
        assert net.metrics.delivered == 1
        assert phy_infos and mac_infos
        for record in phy_infos + mac_infos:
            assert not hasattr(record, "__dict__")
        # One record from radio to network layer: the MAC passes it on.
        assert [id(r) for r in mac_infos] == [id(r) for r in phy_infos]

