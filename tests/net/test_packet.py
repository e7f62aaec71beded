"""Tests for the packet model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import Packet, PacketKind, SeqCounter, packet_uid, uid_fields, uid_str

KINDS = st.sampled_from(list(PacketKind))
ORIGINS = st.integers(0, 2**32 - 1)
SEQS = st.integers(0, 2**40 - 1)


def test_uid_identifies_kind_origin_seq():
    a = Packet(kind=PacketKind.DATA, origin=1, seq=2)
    b = Packet(kind=PacketKind.DATA, origin=1, seq=2, actual_hops=5)
    c = Packet(kind=PacketKind.PATH_REPLY, origin=1, seq=2)
    assert a.uid == b.uid == packet_uid(PacketKind.DATA, 1, 2)
    assert a.uid != c.uid
    assert isinstance(a.uid, int)


@given(KINDS, ORIGINS, SEQS)
@settings(max_examples=300, deadline=None)
def test_uid_fields_inverts_packet_uid(kind, origin, seq):
    assert uid_fields(packet_uid(kind, origin, seq)) == (kind, origin, seq)


@given(st.tuples(KINDS, ORIGINS, SEQS), st.tuples(KINDS, ORIGINS, SEQS))
@settings(max_examples=300, deadline=None)
def test_distinct_triples_get_distinct_uids(a, b):
    assert (packet_uid(*a) == packet_uid(*b)) == (a == b)


def test_uid_str_names_kind_origin_seq():
    assert uid_str(packet_uid(PacketKind.DATA, 0, 3)) == "data:0:3"
    assert uid_str(packet_uid(PacketKind.NET_ACK, 2**32 - 1, 2**40)) == \
        f"net_ack:{2**32 - 1}:{2**40}"


@pytest.mark.parametrize("origin, seq", [(-1, 0), (2**32, 0), (0, -1)])
def test_out_of_range_identity_rejected(origin, seq):
    with pytest.raises(ValueError):
        packet_uid(PacketKind.DATA, origin, seq)
    with pytest.raises(ValueError):
        Packet(kind=PacketKind.DATA, origin=origin, seq=seq)


def test_forwarded_increments_hops_and_extends_path():
    p = Packet(kind=PacketKind.DATA, origin=0, seq=0, expected_hops=4)
    f = p.forwarded(7)
    assert f.actual_hops == 1
    assert f.path == (7,)
    assert f.expected_hops == 4  # unchanged unless given
    assert p.actual_hops == 0    # original untouched


def test_forwarded_sets_expected_hops_when_given():
    p = Packet(kind=PacketKind.DATA, origin=0, seq=0, expected_hops=4)
    assert p.forwarded(7, expected_hops=3).expected_hops == 3


def test_forwarded_preserves_uid():
    p = Packet(kind=PacketKind.DATA, origin=0, seq=9)
    assert p.forwarded(1).forwarded(2).uid == p.uid


def test_packets_are_slotted():
    p = Packet(kind=PacketKind.DATA, origin=0, seq=0)
    assert "uid" in Packet.__slots__
    assert not hasattr(p, "__dict__")


def test_with_fields():
    p = Packet(kind=PacketKind.DATA, origin=0, seq=0)
    q = p.with_fields(expected_hops=9)
    assert q.expected_hops == 9
    assert p.expected_hops == 0
    assert q.uid == p.uid
    r = p.with_fields(seq=p.seq + 1)
    assert r.uid != p.uid
    assert r.uid == packet_uid(PacketKind.DATA, 0, 1)


def test_packets_are_immutable():
    p = Packet(kind=PacketKind.DATA, origin=0, seq=0)
    with pytest.raises(AttributeError):
        p.origin = 5


def test_str_compact():
    p = Packet(kind=PacketKind.DATA, origin=1, seq=2, target=3)
    assert "data" in str(p) and "o=1" in str(p) and "t=3" in str(p)


class TestSeqCounter:
    def test_independent_per_key(self):
        counter = SeqCounter()
        assert counter.next("a") == 0
        assert counter.next("a") == 1
        assert counter.next("b") == 0

    def test_default_key(self):
        counter = SeqCounter()
        assert [counter.next() for _ in range(3)] == [0, 1, 2]


@given(KINDS, ORIGINS, SEQS, st.lists(st.integers(0, 50), max_size=10))
@settings(max_examples=100, deadline=None)
def test_forward_chain_consistency(kind, origin, seq, relays):
    """actual_hops always equals the relay-path length, and the uid holds."""
    p = Packet(kind=kind, origin=origin, seq=seq)
    uid = p.uid
    for relay in relays:
        p = p.forwarded(relay)
    assert p.actual_hops == len(relays)
    assert p.path == tuple(relays)
    assert p.uid == uid
