"""Token-based distributed mutual exclusion via local leader election.

The paper's introduction names this as the second natural instance of the
local leader election problem: "when the current token holder leaves the
critical section, the token must be passed to a successor, and this
successor is indeed a local leader among all other nodes that are competing
for the token."

This module realizes it for a single-hop neighborhood (the *local* setting
the paper defines):

* one node starts holding the token; applications call :meth:`TokenMutex.acquire`;
* the holder's **release broadcast** is the implicit synchronization point;
* every node with a pending request competes with a backoff derived from its
  **waiting time** (longest-waiting wins — an aging policy, so the election
  metric buys approximate FIFO fairness for free);
* the releasing holder is the **arbiter**: it grants the token to the first
  announcement it hears (the grant is authoritative, racing claimants back
  off), and re-offers the token if nobody answers but requests exist;
* an idle holder re-offers the token whenever it overhears a request.

Safety (at most one holder) follows from the grant being the only way to
obtain the token; liveness (every requester eventually served) from the
arbiter re-offering with retries; approximate fairness from the aging
metric.  All three are exercised in ``tests/core/test_mutex.py``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.backoff import BackoffInput
from repro.core.timer import CandidateTimer
from repro.mac.csma import CsmaMac
from repro.net.packet import DEFAULT_CTRL_SIZE, Packet, PacketKind, SeqCounter
from repro.phy.radio import Reception
from repro.sim.components import Component, SimContext

__all__ = ["MutexConfig", "MutexState", "TokenMutex"]


class MutexState(enum.Enum):
    """A node's position in the token lifecycle."""
    IDLE = "idle"                 # no token, no pending request
    WAITING = "waiting"           # requested, not yet granted
    HOLDING_IDLE = "holding_idle" # token in hand, outside the critical section
    IN_CS = "in_cs"               # token in hand, inside the critical section
    RELEASING = "releasing"       # offer broadcast, arbitrating the successor


@dataclass(frozen=True)
class MutexConfig:
    """Backoff, aging and arbiter parameters of the token election."""
    #: Full-scale election delay; a requester waiting ``w`` seconds bids
    #: ``lam / (1 + w / aging_s)`` plus jitter.
    lam: float = 0.02
    aging_s: float = 1.0
    jitter: float = 0.002
    #: Arbiter patience for an announcement before re-offering.
    offer_timeout_s: float = 0.1
    #: Re-offers before the holder gives up (it keeps the token).
    max_reoffers: int = 5
    packet_size: int = DEFAULT_CTRL_SIZE


class TokenMutex(Component):
    """One node's participant in the token-election mutual exclusion."""

    def __init__(self, ctx: SimContext, node_id: int, mac: CsmaMac,
                 config: MutexConfig | None = None,
                 has_token: bool = False):
        super().__init__(ctx, f"mutex[{node_id}]")
        self.node_id = node_id
        self.mac = mac
        self.config = config if config is not None else MutexConfig()
        self.state = MutexState.HOLDING_IDLE if has_token else MutexState.IDLE
        self._rng = self.rng("policy")
        self._seq = SeqCounter()
        self._requested_at: Optional[float] = None
        self._on_acquire: Optional[Callable[[], None]] = None
        self._claim_timer: Optional[CandidateTimer] = None
        self._offer_handle = None
        self._reoffers = 0
        self._epoch = 0  # token transfer count, carried on offers
        self._self_pending: Optional[Callable[[], None]] = None

        #: Fires (no args) when this node obtains the token.
        self.acquired = self.outport("acquired")

        # statistics
        self.grants_issued = 0
        self.times_acquired = 0
        self.wait_times: list[float] = []

        mac.to_net.connect(self._on_packet)

    # ------------------------------------------------------------------ api

    def acquire(self, on_acquire: Callable[[], None] | None = None) -> None:
        """Request the critical section.  ``on_acquire`` fires on grant."""
        if self.state in (MutexState.HOLDING_IDLE,):
            self.state = MutexState.IN_CS
            self.times_acquired += 1
            self.wait_times.append(0.0)
            if on_acquire is not None:
                on_acquire()
            self.acquired.emit()
            return
        if self.state == MutexState.RELEASING:
            # We are offering the token away; remember that we want it again
            # — served when the offer lapses unclaimed, or re-queued as an
            # ordinary request once a successor takes over.
            self._self_pending = on_acquire if on_acquire is not None else (lambda: None)
            return
        if self.state in (MutexState.WAITING, MutexState.IN_CS):
            return  # one outstanding request at a time
        self.state = MutexState.WAITING
        self._requested_at = self.now
        self._on_acquire = on_acquire
        # Tell an idle holder somebody wants the token.
        self._send(PacketKind.SYNC, payload=("request", self._epoch))

    def release(self) -> None:
        """Leave the critical section and open the successor election."""
        if self.state != MutexState.IN_CS:
            raise RuntimeError(f"release() in state {self.state}")
        self._open_offer()

    @property
    def holds_token(self) -> bool:
        return self.state in (MutexState.HOLDING_IDLE, MutexState.IN_CS,
                              MutexState.RELEASING)

    # ---------------------------------------------------------------- offer

    def _open_offer(self) -> None:
        self.state = MutexState.RELEASING
        self._reoffers = 0
        self._broadcast_offer()

    def _broadcast_offer(self) -> None:
        self._send(PacketKind.ANNOUNCE, payload=("offer", self._epoch))
        self._offer_handle = self.schedule(
            self.config.offer_timeout_s, self._offer_timeout)

    def _offer_timeout(self) -> None:
        self._offer_handle = None
        if self.state != MutexState.RELEASING:
            return
        self._reoffers += 1
        if self._reoffers > self.config.max_reoffers:
            # Nobody wants it: keep the token, idle — unless we queued a
            # request against ourselves while releasing.
            self.state = MutexState.HOLDING_IDLE
            pending = self._self_pending
            self._self_pending = None
            if pending is not None:
                self.acquire(pending)
            return
        self._broadcast_offer()

    # ---------------------------------------------------------------- claim

    def _claim_delay(self) -> float:
        waited = self.now - (self._requested_at if self._requested_at is not None else self.now)
        aged = self.config.lam / (1.0 + waited / self.config.aging_s)
        return aged + float(self._rng.uniform(0.0, self.config.jitter))

    def _on_offer(self, packet: Packet) -> None:
        offer_epoch = packet.payload[1]
        if self.state != MutexState.WAITING:
            return
        if self._claim_timer is None:
            self._claim_timer = CandidateTimer(self, self._claim_fire)
        self._claim_timer.arm(self._claim_delay())
        self._pending_epoch = offer_epoch

    def _claim_fire(self) -> None:
        if self.state != MutexState.WAITING:
            return
        self._send(PacketKind.SYNC, payload=("claim", self._pending_epoch))

    # ---------------------------------------------------------------- grant

    def _on_claim(self, packet: Packet) -> None:
        if self.state != MutexState.RELEASING:
            return
        claim_epoch = packet.payload[1]
        if claim_epoch != self._epoch:
            return  # a stale claim from a previous reign
        if self._offer_handle is not None:
            self._offer_handle.cancel()
            self._offer_handle = None
        winner = packet.origin
        self.grants_issued += 1
        self._epoch += 1
        self._send(PacketKind.NET_ACK, payload=("grant", self._epoch, winner))
        self.state = MutexState.IDLE
        pending = self._self_pending
        self._self_pending = None
        if pending is not None:
            self.acquire(pending)

    def _on_grant(self, packet: Packet) -> None:
        _, epoch, winner = packet.payload
        self._epoch = max(self._epoch, epoch)
        if winner != self.node_id:
            # Somebody else won: if our claim is pending, cancel it and wait
            # for the next offer (our aged bid only gets stronger).
            if self._claim_timer is not None:
                self._claim_timer.suppress()
            return
        if self.state != MutexState.WAITING:
            return
        if self._claim_timer is not None:
            self._claim_timer.suppress()
        waited = self.now - (self._requested_at or self.now)
        self.wait_times.append(waited)
        self.times_acquired += 1
        self.state = MutexState.IN_CS
        callback = self._on_acquire
        self._on_acquire = None
        self._requested_at = None
        if callback is not None:
            callback()
        self.acquired.emit()

    def _on_request(self, packet: Packet) -> None:
        # An idle holder re-opens the offer when somebody asks.
        if self.state == MutexState.HOLDING_IDLE:
            self._open_offer()

    # ------------------------------------------------------------- plumbing

    def _send(self, kind: PacketKind, payload) -> None:
        self.mac.send(Packet(
            kind=kind,
            origin=self.node_id,
            seq=self._seq.next(kind),
            size_bytes=self.config.packet_size,
            created_at=self.now,
            payload=payload,
        ))

    def _on_packet(self, packet: Packet, rx: Reception) -> None:
        if not isinstance(packet.payload, tuple) or not packet.payload:
            return
        tag = packet.payload[0]
        if tag == "offer":
            self._on_offer(packet)
        elif tag == "claim":
            self._on_claim(packet)
        elif tag == "grant":
            self._on_grant(packet)
        elif tag == "request":
            self._on_request(packet)
