"""Tests for shared network-protocol machinery."""

from repro.net.base import DuplicateCache
from repro.net.packet import Packet, PacketKind


def pkt(seq, kind=PacketKind.DATA, origin=0):
    return Packet(kind=kind, origin=origin, seq=seq)


class TestDuplicateCache:
    def test_first_record_true_then_false(self):
        cache = DuplicateCache()
        assert cache.record(pkt(0)) is True
        assert cache.record(pkt(0)) is False

    def test_seen_does_not_record(self):
        cache = DuplicateCache()
        assert not cache.seen(pkt(0))
        assert not cache.seen(pkt(0))  # still unseen — seen() is read-only

    def test_distinguishes_kinds_and_origins(self):
        cache = DuplicateCache()
        cache.record(pkt(0))
        assert cache.record(pkt(0, kind=PacketKind.PATH_REPLY))
        assert cache.record(pkt(0, origin=1))

    def test_forwarded_copies_are_duplicates(self):
        cache = DuplicateCache()
        p = pkt(0)
        cache.record(p)
        assert cache.record(p.forwarded(5)) is False
