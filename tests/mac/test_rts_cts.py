"""Tests for RTS/CTS virtual carrier sensing."""

import pytest

from repro.mac.csma import MacConfig
from repro.net.packet import Packet, PacketKind
from tests.conftest import line_positions, make_mac_stack


def data(origin=0, seq=0, target=None, size=400):
    return Packet(kind=PacketKind.DATA, origin=origin, seq=seq, target=target,
                  size_bytes=size)


def collect(mac):
    got = []
    mac.to_net.connect(lambda p, rx: got.append((p, rx)))
    return got


RTS_CONFIG = MacConfig(rts_threshold_bytes=200)


class TestHandshake:
    def test_full_exchange_on_large_unicast(self, ctx):
        channel, radios, macs = make_mac_stack(
            ctx, line_positions(2, spacing=100.0), RTS_CONFIG)
        got = collect(macs[1])
        sent = []
        macs[0].sent.connect(lambda p, d: sent.append(d))
        macs[0].send(data(target=1), dst=1)
        ctx.simulator.run()
        assert len(got) == 1
        assert sent == [1]
        kinds = channel.tx_count_by_kind
        assert kinds["mac_rts"] == 1
        assert kinds["mac_cts"] == 1
        assert kinds["mac_ack"] == 1
        assert kinds["data"] == 1

    def test_small_unicast_skips_rts(self, ctx):
        channel, radios, macs = make_mac_stack(
            ctx, line_positions(2, spacing=100.0), RTS_CONFIG)
        collect(macs[1])
        macs[0].send(data(target=1, size=64), dst=1)
        ctx.simulator.run()
        assert channel.tx_count_by_kind.get("mac_rts", 0) == 0

    def test_broadcast_never_uses_rts(self, ctx):
        channel, radios, macs = make_mac_stack(
            ctx, line_positions(2, spacing=100.0), RTS_CONFIG)
        collect(macs[1])
        macs[0].send(data(size=1000))
        ctx.simulator.run()
        assert channel.tx_count_by_kind.get("mac_rts", 0) == 0

    def test_disabled_by_default(self, ctx):
        channel, radios, macs = make_mac_stack(ctx, line_positions(2, spacing=100.0))
        collect(macs[1])
        macs[0].send(data(target=1, size=1000), dst=1)
        ctx.simulator.run()
        assert channel.tx_count_by_kind.get("mac_rts", 0) == 0

    def test_cts_timeout_retries_then_fails(self, ctx):
        channel, radios, macs = make_mac_stack(
            ctx, line_positions(2, spacing=100.0), RTS_CONFIG)
        failures = []
        macs[0].send_failed.connect(lambda p, d: failures.append(d))
        radios[1].set_power(False)
        macs[0].send(data(target=1), dst=1)
        ctx.simulator.run()
        assert failures == [1]
        assert macs[0].cts_timeouts == macs[0].config.retry_limit + 1


class TestNav:
    def test_third_party_defers_during_exchange(self, ctx):
        # 0 → 1 with RTS/CTS while node 2 (in range of both) wants to send:
        # node 2's NAV must hold it off until the exchange ends.
        channel, radios, macs = make_mac_stack(
            ctx, line_positions(3, spacing=100.0), RTS_CONFIG)
        got1 = collect(macs[1])
        macs[0].send(data(origin=0, target=1, size=1000), dst=1)
        # Let the RTS hit the air, then node 2 tries to broadcast.
        ctx.simulator.schedule(0.0006, macs[2].send, data(origin=2, seq=9))
        ctx.simulator.run()
        assert len(got1) == 2  # both the unicast and the broadcast arrived
        assert macs[2].nav_deferrals >= 1

    def test_nav_clears_and_traffic_resumes(self, ctx):
        channel, radios, macs = make_mac_stack(
            ctx, line_positions(3, spacing=100.0), RTS_CONFIG)
        got = collect(macs[1])
        macs[0].send(data(origin=0, target=1), dst=1)
        ctx.simulator.schedule(0.0006, macs[2].send, data(origin=2, seq=9))
        ctx.simulator.run()
        assert not macs[2].nav_busy
        assert macs[2].busy is False  # everything drained

    def test_hidden_terminal_protected(self, ctx):
        # Line 0 — 1 — 2 with 200 m spacing: 0 and 2 cannot sense each other
        # (hidden terminals) but both can reach node 1.  With RTS/CTS, node
        # 1's CTS sets node 2's NAV so its own transmission waits.
        channel, radios, macs = make_mac_stack(
            ctx, line_positions(3, spacing=200.0), RTS_CONFIG)
        got = collect(macs[1])
        macs[0].send(data(origin=0, target=1, size=1200), dst=1)
        # Node 2 decides to transmit right after the CTS would be heard.
        ctx.simulator.schedule(0.0012, macs[2].send,
                               data(origin=2, seq=9, target=1), 1)
        ctx.simulator.run()
        origins = sorted(p.origin for p, _ in got)
        assert origins == [0, 2]  # both delivered, no collision loss
        assert macs[2].nav_deferrals >= 1


class TestInteractionWithCancel:
    def test_cancel_before_rts_fires(self, ctx):
        channel, radios, macs = make_mac_stack(
            ctx, line_positions(2, spacing=100.0), RTS_CONFIG)
        packet = data(target=1)
        macs[0].send(packet, dst=1)
        assert macs[0].cancel_send(packet.uid)
        ctx.simulator.run()
        assert channel.tx_count == 0
