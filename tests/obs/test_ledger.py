"""Tests for the packet-lifecycle ledger."""

import json

from repro.net.packet import PacketKind, packet_uid
from repro.obs.ledger import DropReason, PacketLedger, PacketStage


UID = packet_uid(PacketKind.DATA, 3, 0)


def test_chain_collects_one_packets_events_in_order():
    ledger = PacketLedger()
    ledger.record(0.0, 3, "net", PacketStage.ORIGINATE, UID)
    ledger.record(0.1, 3, "mac", PacketStage.ENQUEUE, UID, depth=1)
    ledger.record(0.2, 7, "net", PacketStage.ORIGINATE, packet_uid(PacketKind.DATA, 7, 0))
    ledger.record(0.3, 5, "net", PacketStage.DELIVER, UID, delay_s=0.3, hops=2)
    chain = ledger.chain(UID)
    assert [e.stage for e in chain] == [PacketStage.ORIGINATE,
                                        PacketStage.ENQUEUE,
                                        PacketStage.DELIVER]
    assert [e.node for e in chain] == [3, 3, 5]


def test_uidless_entries_recorded_but_not_chained():
    ledger = PacketLedger()
    ledger.record(0.0, 1, "phy", PacketStage.TX, None, kind="mac_ack")
    assert len(ledger) == 1
    assert list(ledger.uids()) == []


def test_drop_counts_sum_to_total():
    ledger = PacketLedger()
    ledger.record(0.0, 1, "mac", PacketStage.DROP, UID,
                  DropReason.QUEUE_OVERFLOW)
    ledger.record(0.1, 2, "net", PacketStage.DROP, UID, DropReason.DUPLICATE)
    ledger.record(0.2, 3, "net", PacketStage.DROP, UID, DropReason.DUPLICATE)
    counts = ledger.drop_counts()
    assert counts[DropReason.QUEUE_OVERFLOW] == 1
    assert counts[DropReason.DUPLICATE] == 2
    assert sum(counts.values()) == ledger.total_drops() == 3


def test_stage_counts_and_of_stage():
    ledger = PacketLedger()
    ledger.record(0.0, 1, "net", PacketStage.ORIGINATE, UID)
    ledger.record(0.1, 1, "phy", PacketStage.TX, UID)
    ledger.record(0.2, 2, "phy", PacketStage.RX, UID)
    assert ledger.stage_counts()[PacketStage.TX] == 1
    assert [e.node for e in ledger.of_stage(PacketStage.RX)] == [2]


def test_to_dict_is_json_safe():
    ledger = PacketLedger()
    ledger.record(1.5, 4, "net", PacketStage.DROP, UID,
                  DropReason.TTL_EXPIRED, hops=5)
    entry = ledger.entries[-1]
    row = json.loads(json.dumps(entry.to_dict()))
    assert row["stage"] == "drop"
    assert row["reason"] == "ttl_expired"
    assert row["uid"] == ["data", 3, 0]
    assert row["detail"] == {"hops": 5}


def test_rows_after_a_query_reach_every_view():
    ledger = PacketLedger()
    other = packet_uid(PacketKind.DATA, 7, 0)
    ledger.record(0.0, 3, "net", PacketStage.ORIGINATE, UID)
    # First queries build the lazy indexes...
    assert len(ledger.entries) == 1
    assert list(ledger.uids()) == [UID]
    assert ledger.drop_counts() == {}
    # ...and rows recorded afterwards must extend them.
    ledger.record(0.1, 3, "mac", PacketStage.DROP, UID,
                  DropReason.QUEUE_OVERFLOW)
    ledger.record(0.2, 7, "net", PacketStage.ORIGINATE, other)
    assert [e.time for e in ledger.entries] == [0.0, 0.1, 0.2]
    assert [e.stage for e in ledger.chain(UID)] == [PacketStage.ORIGINATE,
                                                   PacketStage.DROP]
    assert list(ledger.uids()) == [UID, other]
    assert ledger.drop_counts() == {DropReason.QUEUE_OVERFLOW: 1}
    assert ledger.total_drops() == 1
    assert ledger.stage_counts() == {PacketStage.ORIGINATE: 2,
                                     PacketStage.DROP: 1}
    assert [e.node for e in ledger.of_stage(PacketStage.ORIGINATE)] == [3, 7]


def test_rows_hold_the_recorded_fields():
    ledger = PacketLedger()
    ledger.record(1.5, 4, "net", PacketStage.DROP, UID,
                  DropReason.TTL_EXPIRED, hops=5)
    ledger.record(1.6, 4, "phy", PacketStage.TX, None)
    assert ledger.rows == [
        (1.5, 4, "net", PacketStage.DROP, UID, DropReason.TTL_EXPIRED,
         {"hops": 5}),
        (1.6, 4, "phy", PacketStage.TX, None, None, None),
    ]
