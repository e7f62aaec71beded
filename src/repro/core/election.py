"""The local leader election primitive (Section 2 of the paper).

A *local* leader election selects one node out of the set that observed a
common radio event.  The solution has four moving parts, all implemented
here:

1. **Implicit synchronization point** — the reception of a trigger packet
   (or of any commonly observed transmission).  No clock synchronization is
   used anywhere; nodes are synchronized only by hearing the same signal.
2. **Prioritized backoff** — each candidate derives a delay from a
   :class:`~repro.core.backoff.BackoffPolicy` and arms a timer.
3. **Announcement / suppression** — a candidate whose timer expires
   broadcasts an announcement and considers itself leader; candidates that
   hear an announcement first cancel their timers.
4. **Arbiter (optional)** — a node that can hear every candidate
   acknowledges the first announcement (silencing stragglers that missed it)
   and re-triggers the election if nobody announced within a timeout, which
   upgrades "usually elects somebody" to "eventually elects at least one".

The same machinery drives SSAF and Routeless Routing; this module's
:class:`ElectionNode` is the primitive in its pure form, running directly on
a CSMA MAC, used by the quickstart example and the election test-bench.

:class:`CandidateTimer` is the reusable arm/cancel core shared with the
routing protocols.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.backoff import BackoffInput, BackoffPolicy
from repro.core.timer import CandidateState, CandidateTimer
from repro.mac.csma import CsmaMac
from repro.net.packet import DEFAULT_CTRL_SIZE, Packet, PacketKind, SeqCounter, uid_fields
from repro.phy.radio import Reception
from repro.sim.components import Component, SimContext

__all__ = [
    "CandidateTimer",
    "CandidateState",
    "ElectionConfig",
    "ElectionNode",
    "ElectionRound",
]


@dataclass(frozen=True)
class ElectionConfig:
    """Policy and arbiter parameters for one election deployment."""
    policy: BackoffPolicy
    #: Run the arbiter protocol on the triggering node.
    use_arbiter: bool = True
    #: How long the arbiter waits for an announcement before re-triggering.
    arbiter_timeout_s: float = 0.25
    #: Maximum number of re-triggers before the arbiter gives up.
    max_retriggers: int = 5
    packet_size: int = DEFAULT_CTRL_SIZE


@dataclass
class ElectionRound:
    """One node's view of one election instance."""

    uid: int
    attempt: int = 0
    leader: Optional[int] = None
    timer: Optional[CandidateTimer] = None
    acknowledged: bool = False


class ElectionNode(Component):
    """A node participating in Section 2's election protocol.

    Wire one per node on top of a :class:`~repro.mac.csma.CsmaMac`.  Any node
    may :meth:`trigger` an election; every *candidate* node that hears the
    trigger competes.  The trigger node acts as arbiter when configured, and
    is not itself a candidate.
    """

    def __init__(
        self,
        ctx: SimContext,
        node_id: int,
        mac: CsmaMac,
        config: ElectionConfig,
        candidate: bool = True,
        observe: Callable[[Packet, Reception], BackoffInput] | None = None,
    ):
        super().__init__(ctx, f"election[{node_id}]")
        self.node_id = node_id
        self.mac = mac
        self.config = config
        self.candidate = candidate
        self._observe = observe if observe is not None else self._default_observe
        self._rng = self.rng("policy")
        self._seq = SeqCounter()
        self.rounds: dict[int, ElectionRound] = {}
        self._arbiter_handles: dict[int, object] = {}

        #: Delivers ``(round_uid, leader_id)`` when this node learns a leader.
        self.elected = self.outport("elected")

        mac.to_net.connect(self._on_packet)

    # ----------------------------------------------------------- triggering

    def trigger(self) -> int:
        """Broadcast a sync packet, creating the implicit synchronization
        point.  Returns the round uid."""
        seq = self._seq.next(PacketKind.SYNC)
        packet = Packet(
            kind=PacketKind.SYNC,
            origin=self.node_id,
            seq=seq,
            size_bytes=self.config.packet_size,
            created_at=self.now,
        )
        uid = packet.uid
        self.rounds[uid] = ElectionRound(uid=uid)
        self.mac.send(packet)
        if self.config.use_arbiter:
            self._arm_arbiter(uid, packet)
        return uid

    def _arm_arbiter(self, uid: int, sync_packet: Packet) -> None:
        handle = self.schedule(
            self.config.arbiter_timeout_s, self._arbiter_timeout, uid, sync_packet
        )
        self._arbiter_handles[uid] = handle

    def _arbiter_timeout(self, uid: int, sync_packet: Packet) -> None:
        self._arbiter_handles.pop(uid, None)
        round_ = self.rounds.get(uid)
        if round_ is None or round_.leader is not None:
            return
        if round_.attempt >= self.config.max_retriggers:
            return
        round_.attempt += 1
        # "it will trigger the implicit synchronization point again by
        # sending out the original synchronization packet"
        self.mac.send(sync_packet)
        self._arm_arbiter(uid, sync_packet)

    # ------------------------------------------------------------ reception

    def _default_observe(self, packet: Packet, rx: Reception) -> BackoffInput:
        return BackoffInput(
            rng=self._rng,
            rx_power_dbm=rx.power_dbm,
            expected_hops=packet.expected_hops,
        )

    def _on_packet(self, packet: Packet, rx: Reception) -> None:
        if packet.kind == PacketKind.SYNC:
            self._on_sync(packet, rx)
        elif packet.kind == PacketKind.ANNOUNCE:
            self._on_announce(packet)
        elif packet.kind == PacketKind.NET_ACK:
            self._on_ack(packet)

    def _on_sync(self, packet: Packet, rx: Reception) -> None:
        if not self.candidate:
            return
        uid = packet.uid
        round_ = self.rounds.get(uid)
        if round_ is None:
            round_ = ElectionRound(uid=uid)
            self.rounds[uid] = round_
        if round_.leader is not None:
            return  # already resolved; a late re-trigger changes nothing
        delay = self.config.policy.delay(self._observe(packet, rx))
        if round_.timer is None:
            round_.timer = CandidateTimer(self, lambda: self._announce(uid, packet))
        round_.timer.arm(delay)

    def _announce(self, uid: int, sync_packet: Packet) -> None:
        round_ = self.rounds[uid]
        round_.leader = self.node_id
        announce = Packet(
            kind=PacketKind.ANNOUNCE,
            origin=self.node_id,
            seq=self._seq.next(PacketKind.ANNOUNCE),
            target=sync_packet.origin,
            size_bytes=self.config.packet_size,
            created_at=self.now,
            ref_seq=sync_packet.seq,
            payload=uid,
        )
        self.mac.send(announce)
        self.elected.emit(uid, self.node_id)

    def _on_announce(self, packet: Packet) -> None:
        uid = packet.payload
        round_ = self.rounds.get(uid)
        if round_ is None:
            return
        if round_.timer is not None:
            round_.timer.suppress()
        first_news = round_.leader is None
        if first_news:
            round_.leader = packet.origin
        # The arbiter (the sync packet's origin) acknowledges the first
        # announcement it hears.
        _, arbiter, _ = uid_fields(uid)
        if self.config.use_arbiter and arbiter == self.node_id and not round_.acknowledged:
            round_.acknowledged = True
            handle = self._arbiter_handles.pop(uid, None)
            if handle is not None:
                handle.cancel()
            ack = Packet(
                kind=PacketKind.NET_ACK,
                origin=self.node_id,
                seq=self._seq.next(PacketKind.NET_ACK),
                size_bytes=self.config.packet_size,
                created_at=self.now,
                ref_seq=packet.seq,
                payload=(uid, packet.origin),
            )
            self.mac.send(ack)
        if first_news:
            self.elected.emit(uid, packet.origin)

    def _on_ack(self, packet: Packet) -> None:
        uid, leader = packet.payload
        round_ = self.rounds.get(uid)
        if round_ is None:
            round_ = ElectionRound(uid=uid)
            self.rounds[uid] = round_
        if round_.timer is not None:
            round_.timer.suppress()
        # The arbiter's acknowledgement is authoritative: when two
        # announcements raced, nodes that heard the loser first converge on
        # the arbiter's verdict.
        if round_.leader != leader:
            round_.leader = leader
            self.elected.emit(uid, leader)

    # -------------------------------------------------------------- queries

    def leader_of(self, uid: int) -> Optional[int]:
        round_ = self.rounds.get(uid)
        return None if round_ is None else round_.leader
