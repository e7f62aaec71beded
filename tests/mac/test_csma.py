"""Tests for the CSMA/CA MAC: broadcast, unicast/ACK/retry, deferral,
cancellation, queue disciplines."""

import pytest

from repro.mac.csma import MacConfig
from repro.net.packet import Packet, PacketKind
from tests.conftest import line_positions, make_mac_stack


def data(origin=0, seq=0, target=None, size=100):
    return Packet(kind=PacketKind.DATA, origin=origin, seq=seq, target=target,
                  size_bytes=size)


def collect(mac):
    got = []
    mac.to_net.connect(lambda p, rx: got.append((p, rx)))
    return got


class TestBroadcast:
    def test_broadcast_reaches_all_in_range(self, ctx):
        channel, radios, macs = make_mac_stack(ctx, line_positions(3, spacing=100.0))
        got1, got2 = collect(macs[1]), collect(macs[2])
        macs[0].send(data())
        ctx.simulator.run()
        assert len(got1) == 1 and len(got2) == 1

    def test_rx_info_carries_power_and_src(self, ctx):
        channel, radios, macs = make_mac_stack(ctx, line_positions(2, spacing=150.0))
        got = collect(macs[1])
        macs[0].send(data())
        ctx.simulator.run()
        _, rx = got[0]
        assert rx.src == 0
        assert rx.power_dbm > -100
        assert rx.frame.dst is None  # a broadcast, not an overheard unicast

    def test_broadcasts_have_no_mac_ack(self, ctx):
        channel, radios, macs = make_mac_stack(ctx, line_positions(2, spacing=100.0))
        macs[0].send(data())
        ctx.simulator.run()
        assert channel.tx_count_by_kind["mac_ack"] == 0

    def test_sent_notification(self, ctx):
        channel, radios, macs = make_mac_stack(ctx, line_positions(2, spacing=100.0))
        sent = []
        macs[0].sent.connect(lambda p, dst: sent.append((p, dst)))
        packet = data()
        macs[0].send(packet)
        ctx.simulator.run()
        assert sent == [(packet, None)]

    def test_queue_serializes_transmissions(self, ctx):
        channel, radios, macs = make_mac_stack(ctx, line_positions(2, spacing=100.0))
        got = collect(macs[1])
        for i in range(5):
            macs[0].send(data(seq=i))
        ctx.simulator.run()
        assert [p.seq for p, _ in got] == [0, 1, 2, 3, 4]

    def test_queue_overflow_drops(self, ctx):
        config = MacConfig(queue_capacity=2)
        channel, radios, macs = make_mac_stack(ctx, line_positions(2), config)
        results = [macs[0].send(data(seq=i)) for i in range(5)]
        # one in service + two queued fit; the rest are refused
        assert results.count(False) >= 2


class TestUnicast:
    def test_unicast_delivered_and_acked(self, ctx):
        channel, radios, macs = make_mac_stack(ctx, line_positions(2, spacing=100.0))
        got = collect(macs[1])
        sent = []
        macs[0].sent.connect(lambda p, dst: sent.append(dst))
        macs[0].send(data(target=1), dst=1)
        ctx.simulator.run()
        assert len(got) == 1
        assert sent == [1]  # completion implies the ACK came back
        assert channel.tx_count_by_kind["mac_ack"] == 1

    def test_unicast_to_dead_node_reports_failure(self, ctx):
        channel, radios, macs = make_mac_stack(ctx, line_positions(2, spacing=100.0))
        failures = []
        macs[0].send_failed.connect(lambda p, dst: failures.append(dst))
        radios[1].set_power(False)
        macs[0].send(data(target=1), dst=1)
        ctx.simulator.run()
        assert failures == [1]
        assert macs[0].ack_timeouts == macs[0].config.retry_limit + 1

    def test_retries_until_ack(self, ctx):
        channel, radios, macs = make_mac_stack(ctx, line_positions(2, spacing=100.0))
        got = collect(macs[1])
        # Dead for the first attempts, then back up: the retransmission gets
        # through and no failure is reported.
        failures = []
        macs[0].send_failed.connect(lambda p, dst: failures.append(dst))
        radios[1].set_power(False)
        ctx.simulator.schedule(0.004, radios[1].set_power, True)
        macs[0].send(data(target=1), dst=1)
        ctx.simulator.run()
        assert len(got) == 1
        assert failures == []
        assert macs[0].ack_timeouts >= 1

    def test_unicast_for_other_node_ignored(self, ctx):
        channel, radios, macs = make_mac_stack(ctx, line_positions(3, spacing=100.0))
        got2 = collect(macs[2])
        macs[0].send(data(target=1), dst=1)
        ctx.simulator.run()
        assert got2 == []


class TestCarrierDeferral:
    def test_concurrent_senders_avoid_collision(self, ctx):
        # Nodes 0 and 2 both in carrier range; both send to node 1 at once.
        channel, radios, macs = make_mac_stack(ctx, line_positions(3, spacing=100.0))
        got = collect(macs[1])
        macs[0].send(data(origin=0))
        macs[2].send(data(origin=2))
        ctx.simulator.run()
        # CSMA (carrier sense + random backoff) should usually serialize
        # them; with these seeds both get through.
        assert sorted(p.origin for p, _ in got) == [0, 2]

    def test_many_contenders_all_eventually_send(self, ctx):
        channel, radios, macs = make_mac_stack(ctx, line_positions(5, spacing=50.0))
        got = collect(macs[4])
        for i in range(4):
            macs[i].send(data(origin=i))
        ctx.simulator.run()
        assert len(got) >= 3  # collisions possible but rare


class TestCancelSend:
    def test_cancel_queued_packet(self, ctx):
        channel, radios, macs = make_mac_stack(ctx, line_positions(2, spacing=100.0))
        got = collect(macs[1])
        first, second = data(seq=0), data(seq=1)
        macs[0].send(first)
        macs[0].send(second)  # still queued while first is in service
        assert macs[0].cancel_send(second.uid)
        ctx.simulator.run()
        assert [p.seq for p, _ in got] == [0]

    def test_cancel_in_backoff_window(self, ctx):
        channel, radios, macs = make_mac_stack(ctx, line_positions(2, spacing=100.0))
        got = collect(macs[1])
        packet = data()
        macs[0].send(packet)
        # Cancel before the CSMA backoff elapses (difs alone is 50 µs).
        assert macs[0].cancel_send(packet.uid)
        ctx.simulator.run()
        assert got == []
        assert channel.tx_count == 0

    def test_cancel_after_transmission_fails(self, ctx):
        channel, radios, macs = make_mac_stack(ctx, line_positions(2, spacing=100.0))
        packet = data()
        macs[0].send(packet)
        ctx.simulator.run()
        assert not macs[0].cancel_send(packet.uid)

    def test_cancel_unknown_packet_false(self, ctx):
        channel, radios, macs = make_mac_stack(ctx, line_positions(2))
        assert not macs[0].cancel_send(data().uid)

    def test_cancel_frees_queue_for_next(self, ctx):
        channel, radios, macs = make_mac_stack(ctx, line_positions(2, spacing=100.0))
        got = collect(macs[1])
        first, second = data(seq=0), data(seq=1)
        macs[0].send(first)
        macs[0].send(second)
        macs[0].cancel_send(first.uid)  # cancels the in-service job
        ctx.simulator.run()
        assert [p.seq for p, _ in got] == [1]


class TestPriorityQueueDiscipline:
    def test_priority_mac_reorders(self, ctx):
        config = MacConfig(priority_queue=True)
        channel, radios, macs = make_mac_stack(ctx, line_positions(2, spacing=100.0), config)
        got = collect(macs[1])
        macs[0].send(data(seq=0), priority=0.9)   # in service immediately
        macs[0].send(data(seq=1), priority=0.8)
        macs[0].send(data(seq=2), priority=0.1)   # should overtake seq=1
        ctx.simulator.run()
        assert [p.seq for p, _ in got] == [0, 2, 1]

    def test_fifo_mac_preserves_order(self, ctx):
        channel, radios, macs = make_mac_stack(ctx, line_positions(2, spacing=100.0))
        got = collect(macs[1])
        macs[0].send(data(seq=0), priority=0.9)
        macs[0].send(data(seq=1), priority=0.8)
        macs[0].send(data(seq=2), priority=0.1)
        ctx.simulator.run()
        assert [p.seq for p, _ in got] == [0, 1, 2]


class TestDeadRadio:
    def test_send_on_dead_radio_drops_quietly(self, ctx):
        channel, radios, macs = make_mac_stack(ctx, line_positions(2, spacing=100.0))
        failures = []
        macs[0].send_failed.connect(lambda p, d: failures.append(p))
        radios[0].set_power(False)
        macs[0].send(data())
        ctx.simulator.run()
        assert channel.tx_count == 0
        assert failures == []  # the node is dead; nobody to notify

    def test_mac_recovers_after_power_cycle(self, ctx):
        channel, radios, macs = make_mac_stack(ctx, line_positions(2, spacing=100.0))
        got = collect(macs[1])
        radios[0].set_power(False)
        macs[0].send(data(seq=0))
        ctx.simulator.run()
        radios[0].set_power(True)
        macs[0].send(data(seq=1))
        ctx.simulator.run()
        assert [p.seq for p, _ in got] == [1]
