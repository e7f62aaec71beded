"""The packet-lifecycle ledger: per-packet causal chains with typed drops.

The paper's claims are mechanistic — SSAF's elected forwarder *suppresses*
redundant rebroadcasts, Routeless Routing survives failures because a dead
next hop simply *loses an election* — so validating them needs per-packet
causality, not endpoint ratios.  The ledger records one row per
lifecycle event (read back as :class:`LedgerEntry` objects):

    originate → enqueue → contend → tx → rx → suppress/forward → deliver/drop

keyed by the packet's network-wide uid, with every drop carrying a typed
:class:`DropReason`.  ``bare dropped += 1`` counters across the stack now
route through this taxonomy, so the MAC's queue-overflow drop and AODV's
no-route drop are distinguishable in the same report.

Entries also name the *layer* (``phy``/``mac``/``net``) that witnessed the
event: one packet's chain threads through every layer of every node it
touched, which is exactly the view the timeline export renders.
"""

from __future__ import annotations

import enum
from collections import Counter as TallyCounter
from itertools import islice
from typing import Any, Iterator, Optional

from repro.net.packet import uid_fields

__all__ = ["DropReason", "PacketStage", "LedgerEntry", "PacketLedger"]


class DropReason(enum.Enum):
    """Why a packet (or one node's copy of it) died.  The single taxonomy
    shared by the MAC transmit queues, the net-layer pending buffers and
    every protocol's forwarding logic."""

    #: A drop-tail queue or pending buffer was full (MAC tx queue, net-layer
    #: pending-data buffer awaiting discovery).
    QUEUE_OVERFLOW = "queue_overflow"
    #: Two decodable frames overlapped at a receiver and corrupted each other.
    COLLISION = "collision"
    #: The hop budget (``max_hops``) was exhausted.
    TTL_EXPIRED = "ttl_expired"
    #: A copy of an already-seen packet arrived and was discarded.
    DUPLICATE = "duplicate"
    #: No forwarder emerged: an election chain gave up after retransmissions.
    NO_FORWARDER = "no_forwarder"
    #: No route existed (or discovery failed) for a routed protocol.
    NO_ROUTE = "no_route"
    #: A MAC unicast exhausted its retry budget without an acknowledgement.
    RETRY_EXHAUSTED = "retry_exhausted"
    #: The node's transceiver was off/asleep when the packet needed it.
    RADIO_OFF = "radio_off"
    #: An injected packet-corruption fault flipped bits in an otherwise
    #: intact reception (see :mod:`repro.faults`).
    FAULT_CORRUPTED = "fault_corrupted"
    #: The node's energy budget ran out and its transceiver shut down.
    ENERGY_DEPLETED = "energy_depleted"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class PacketStage(enum.Enum):
    """One step of the packet lifecycle."""

    ORIGINATE = "originate"   # net: application handed us a fresh packet
    ENQUEUE = "enqueue"       # mac: accepted into a transmit queue
    CONTEND = "contend"       # mac: CSMA backoff armed for the medium
    TX = "tx"                 # phy: frame put on the air
    RX = "rx"                 # phy: frame decoded intact at a receiver
    SUPPRESS = "suppress"     # net: pending rebroadcast cancelled (election lost)
    FORWARD = "forward"       # net: this node relays the packet onward
    DELIVER = "deliver"       # net: packet reached its destination
    DROP = "drop"             # any layer: a copy died (reason attached)
    FAULT = "fault"           # fault injector: a fault fired/cleared at a node

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class LedgerEntry:
    """One lifecycle event.  ``uid`` is the packet's network-wide identity
    (:attr:`repro.net.packet.Packet.uid`), or ``None`` for control frames
    that carry no network packet (MAC ACK/RTS/CTS)."""

    __slots__ = ("time", "node", "layer", "stage", "uid", "reason", "detail")

    def __init__(self, time: float, node: int, layer: str, stage: PacketStage,
                 uid: Optional[int] = None,
                 reason: Optional[DropReason] = None,
                 detail: Optional[dict] = None):
        self.time = time
        self.node = node
        self.layer = layer
        self.stage = stage
        self.uid = uid
        self.reason = reason
        self.detail = detail

    def to_dict(self) -> dict:
        """JSON-safe form (the JSONL export row)."""
        row: dict[str, Any] = {
            "time": self.time,
            "node": self.node,
            "layer": self.layer,
            "stage": self.stage.value,
        }
        if self.uid is not None:
            kind, *origin_seq = uid_fields(self.uid)
            row["uid"] = [kind.value, *origin_seq]
        if self.reason is not None:
            row["reason"] = self.reason.value
        if self.detail:
            row["detail"] = self.detail
        return row

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        reason = f" reason={self.reason.value}" if self.reason else ""
        return (f"<LedgerEntry t={self.time:.6f} n{self.node} {self.layer}."
                f"{self.stage.value} uid={self.uid}{reason}>")


class PacketLedger:
    """Append-only store of lifecycle events for one simulation run.

    Recording is one tuple append to :attr:`rows`; everything else is
    derived lazily.  The first query builds the :class:`LedgerEntry` list,
    the per-uid index and the drop/stage tallies, and every later query
    extends them over the rows appended since.
    """

    def __init__(self) -> None:
        #: ``(time, node, layer, stage, uid, reason, detail)`` per event, in
        #: record order.  Hot paths append to it directly.
        self.rows: list[tuple] = []
        self._entries: list[LedgerEntry] = []
        self._by_uid: dict[int, list[LedgerEntry]] = {}
        self._drops: TallyCounter[DropReason] = TallyCounter()
        self._stages: TallyCounter[PacketStage] = TallyCounter()

    def record(self, time: float, node: int, layer: str, stage: PacketStage,
               uid: Optional[int] = None,
               reason: Optional[DropReason] = None,
               **detail: Any) -> None:
        self.rows.append((time, node, layer, stage, uid, reason,
                          detail or None))

    def _index(self) -> None:
        """Extend the entries, uid index and tallies over new rows."""
        entries = self._entries
        if len(entries) == len(self.rows):
            return
        by_uid = self._by_uid
        drops = self._drops
        stages = self._stages
        for row in islice(self.rows, len(entries), None):
            entry = LedgerEntry(*row)
            entries.append(entry)
            if entry.uid is not None:
                by_uid.setdefault(entry.uid, []).append(entry)
            if entry.reason is not None:
                drops[entry.reason] += 1
            stages[entry.stage] += 1

    # -------------------------------------------------------------- queries

    @property
    def entries(self) -> list[LedgerEntry]:
        """Every event as a :class:`LedgerEntry`, in record order."""
        self._index()
        return self._entries

    def chain(self, uid: int) -> list[LedgerEntry]:
        """Every event of one packet, in record (≈ causal) order."""
        self._index()
        return list(self._by_uid.get(uid, ()))

    def uids(self) -> Iterator[int]:
        self._index()
        return iter(self._by_uid)

    def of_stage(self, stage: PacketStage) -> Iterator[LedgerEntry]:
        return (e for e in self.entries if e.stage is stage)

    def drop_counts(self) -> dict[DropReason, int]:
        """Per-reason drop tallies; their sum is :meth:`total_drops`."""
        self._index()
        return dict(self._drops)

    def total_drops(self) -> int:
        self._index()
        return sum(self._drops.values())

    def stage_counts(self) -> dict[PacketStage, int]:
        self._index()
        return dict(self._stages)

    def __len__(self) -> int:
        return len(self.rows)
