"""LEACH-style cluster-head election on the leader-election primitive.

The paper cites LEACH [30] among the sensor-network protocols its primitive
speaks to; cluster-head selection *is* a local leader election — each round,
every neighborhood must elect one head to aggregate its members' readings,
and rotating the role with residual energy is exactly a prioritized backoff.

Protocol per round (round start times are locally scheduled; no global
clock — neighbors synchronize implicitly on the first HEAD announcement
they hear, as Section 2 prescribes):

1. At its round tick, an undecided node arms a candidacy backoff
   ``λ · (1 − energy) + jitter`` — the fullest battery bids fastest.
2. Timer fires → announce HEAD; serve the round (energy drain ∝ members).
3. Hearing a HEAD announcement first → cancel candidacy, JOIN the
   strongest-signal head heard this round (signal strength again standing
   in for proximity, à la SSAF).
4. Round ends → everyone resets; rotation emerges from the energy term.

Invariants tested: every node is a head or a member of an in-range head,
heads are a minority in dense networks, and the head role rotates so that
energy drains evenly (Jain index over residual energy stays high).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.timer import CandidateTimer
from repro.mac.csma import CsmaMac
from repro.net.packet import DEFAULT_CTRL_SIZE, Packet, PacketKind, SeqCounter
from repro.phy.radio import Reception
from repro.sim.components import Component, SimContext

__all__ = ["ClusterConfig", "ClusterNode"]


@dataclass(frozen=True)
class ClusterConfig:
    """Round structure and energy economics of the cluster-head election."""
    round_s: float = 2.0
    #: Time from a node's round start until it commits to a head.  Must
    #: exceed the phase spread between nodes' local round clocks (round/4)
    #: plus the longest candidacy backoff.
    election_window_s: float = 0.75
    lam: float = 0.05
    jitter: float = 0.005
    #: A head announcement suppresses new candidacies for this long — it
    #: spans round boundaries so late-phased nodes do not re-elect over a
    #: standing head.
    offer_valid_s: float = 1.0
    #: Rounds a node sits out after serving as head (LEACH's rotation rule).
    cooldown_rounds: int = 2
    #: Energy a head spends per served round (fraction of full charge).
    head_drain: float = 0.08
    #: Energy a member spends per round.
    member_drain: float = 0.01
    packet_size: int = DEFAULT_CTRL_SIZE


class ClusterNode(Component):
    """One node's LEACH-style agent."""

    def __init__(self, ctx: SimContext, node_id: int, mac: CsmaMac,
                 config: ClusterConfig | None = None, energy: float = 1.0):
        super().__init__(ctx, f"cluster[{node_id}]")
        self.node_id = node_id
        self.mac = mac
        self.config = config if config is not None else ClusterConfig()
        self.energy = energy
        self._rng = self.rng("cluster")
        self._seq = SeqCounter()
        self._timer: Optional[CandidateTimer] = None
        self.round_no = -1
        self.is_head = False
        #: Chosen head for the current round (self when head, None if orphan).
        self.head: Optional[int] = None
        #: Strongest recent head announcement: (power, head id, heard at).
        self._best_offer: Optional[tuple[float, int, float]] = None
        self._last_head_round = -10**9
        self.members: set[int] = set()

        self.rounds_as_head = 0
        self.rounds_as_member = 0
        self.rounds_orphan = 0

        mac.to_net.connect(self._on_packet)
        # Local (unsynchronized) round clock with a random phase.
        self.schedule(float(self._rng.uniform(0.0, self.config.round_s / 4)),
                      self._begin_round)

    # --------------------------------------------------------------- rounds

    def _begin_round(self) -> None:
        self._settle_previous_round()
        was_orphan = self.round_no >= 0 and not self.is_head and self.head is None
        self.round_no += 1
        self.is_head = False
        self.head = None
        self.members = set()
        # A stale offer no longer suppresses; a fresh one still does.
        if self._best_offer is not None and \
                self.now - self._best_offer[2] > self.config.offer_valid_s:
            self._best_offer = None
        cooling = (self.round_no - self._last_head_round) <= self.config.cooldown_rounds
        suppressed = self._best_offer is not None
        if self.energy > 0.0 and not suppressed and (not cooling or was_orphan):
            delay = (self.config.lam * (1.0 - self.energy) +
                     float(self._rng.uniform(0.0, self.config.jitter)))
            if self._timer is None:
                self._timer = CandidateTimer(self, self._become_head)
            self._timer.arm(delay)
        self.schedule(self.config.election_window_s, self._choose_head)
        self.schedule(self.config.round_s, self._begin_round)

    def _settle_previous_round(self) -> None:
        if self.round_no < 0:
            return
        if self.is_head:
            self.rounds_as_head += 1
            self.energy = max(0.0, self.energy - self.config.head_drain)
        elif self.head is not None:
            self.rounds_as_member += 1
            self.energy = max(0.0, self.energy - self.config.member_drain)
        else:
            self.rounds_orphan += 1

    def _become_head(self) -> None:
        self.is_head = True
        self.head = self.node_id
        self._last_head_round = self.round_no
        self._send(("head", self.round_no))

    def _choose_head(self) -> None:
        """End of the election window: members commit to the best offer."""
        if self.is_head or self.head is not None:
            return
        if self._timer is not None:
            self._timer.suppress()
        if self._best_offer is None:
            return
        _, head_id, _ = self._best_offer
        self.head = head_id
        self._send(("join", self.round_no, head_id))

    # -------------------------------------------------------------- receive

    def _on_packet(self, packet: Packet, rx: Reception) -> None:
        payload = packet.payload
        if not (isinstance(payload, tuple) and payload and payload[0] == "cl"):
            return
        tag = payload[1]
        if tag == "head":
            # First head heard suppresses our own candidacy (the election);
            # among several, the strongest signal wins our membership.
            if not self.is_head and self._timer is not None:
                self._timer.suppress()
            offer = (rx.power_dbm, packet.origin, self.now)
            if self._best_offer is None or offer[:2] > self._best_offer[:2] \
                    or self.now - self._best_offer[2] > self.config.offer_valid_s:
                self._best_offer = offer
        elif tag == "join":
            head_id = payload[3]
            if head_id == self.node_id and self.is_head:
                self.members.add(packet.origin)

    def _send(self, payload) -> None:
        self.mac.send(Packet(
            kind=PacketKind.ANNOUNCE,
            origin=self.node_id,
            seq=self._seq.next("cluster"),
            size_bytes=self.config.packet_size,
            created_at=self.now,
            payload=("cl",) + payload,
        ))
