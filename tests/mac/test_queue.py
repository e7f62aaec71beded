"""Tests for the net→MAC transmit queue, in both disciplines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.queue import TxJob, TxQueue
from repro.net.packet import Packet, PacketKind


def job(tag, priority=0.0):
    return TxJob(packet=tag, dst=None, size_bytes=64, priority=priority)


def pkt(seq):
    return Packet(kind=PacketKind.DATA, origin=0, seq=seq, size_bytes=64)


class TestFifo:
    def test_fifo_order(self):
        q = TxQueue()
        for i in range(5):
            q.push(job(i))
        assert [q.pop().packet for _ in range(5)] == list(range(5))

    def test_empty_pop_returns_none(self):
        assert TxQueue().pop() is None

    def test_capacity_drop_tail(self):
        q = TxQueue(capacity=2)
        assert q.push(job(0)) and q.push(job(1))
        assert not q.push(job(2))
        assert q.dropped == 1
        assert len(q) == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TxQueue(capacity=0)

    def test_cancel_removes_job(self):
        q = TxQueue()
        packets = [pkt(0), pkt(1)]
        q.push(job(packets[0]))
        q.push(job(packets[1]))
        assert q.cancel(packets[0].uid)
        assert len(q) == 1
        assert q.pop().packet is packets[1]

    def test_cancel_missing_returns_false(self):
        q = TxQueue()
        assert not q.cancel(pkt(0).uid)
        q.push(job(pkt(0)))
        assert not q.cancel(pkt(1).uid)

    def test_cancel_is_identity_based(self):
        # A packet's identity is its uid: a relayed copy is the same packet.
        q = TxQueue()
        a, b = pkt(0), pkt(1)
        q.push(job(a.forwarded(3)))
        assert not q.cancel(b.uid)
        assert q.cancel(a.uid)

    def test_priorities_are_ignored(self):
        q = TxQueue()
        q.push(job("first", priority=0.9))
        q.push(job("second", priority=0.1))
        assert [q.pop().packet for _ in range(2)] == ["first", "second"]

    def test_cancel_withdraws_the_earliest_queued_copy(self):
        q = TxQueue()
        p = pkt(0)
        jobs = [job(pkt(1)), job(pkt(2)), job(p), job(p), job(pkt(3))]
        for j in jobs:
            q.push(j)
        q.pop()  # leaves the later copy of p ahead of the earlier one in the heap
        assert q.cancel(p.uid)
        assert jobs[2].cancelled and not jobs[3].cancelled
        assert [q.pop() for _ in range(3)] == [jobs[1], jobs[3], jobs[4]]

    def test_bool_reflects_live_jobs(self):
        q = TxQueue()
        p = pkt(0)
        q.push(job(p))
        assert q
        q.cancel(p.uid)
        assert not q


class TestPriority:
    def test_lowest_priority_value_first(self):
        q = TxQueue(prioritized=True)
        q.push(job("slow", priority=0.9))
        q.push(job("fast", priority=0.1))
        q.push(job("mid", priority=0.5))
        assert [q.pop().packet for _ in range(3)] == ["fast", "mid", "slow"]

    def test_ties_break_fifo(self):
        q = TxQueue(prioritized=True)
        for i in range(5):
            q.push(job(i, priority=1.0))
        assert [q.pop().packet for _ in range(5)] == list(range(5))

    def test_capacity_drop_tail(self):
        q = TxQueue(prioritized=True, capacity=1)
        assert q.push(job(0))
        assert not q.push(job(1, priority=-1.0))  # even urgent jobs drop when full
        assert q.dropped == 1

    def test_cancel_in_heap(self):
        q = TxQueue(prioritized=True)
        p, other = pkt(0), pkt(1)
        q.push(job(p, priority=0.0))
        q.push(job(other, priority=1.0))
        assert q.cancel(p.uid)
        assert q.pop().packet is other
        assert q.pop() is None

    @given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_pops_are_sorted_by_priority(self, priorities):
        q = TxQueue(prioritized=True, capacity=100)
        for i, p in enumerate(priorities):
            q.push(job(i, priority=p))
        popped = []
        while True:
            j = q.pop()
            if j is None:
                break
            popped.append(j.priority)
        assert popped == sorted(popped)
        assert len(popped) == len(priorities)
