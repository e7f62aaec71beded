"""Span-style coordinator election (Chen, Jamieson, Balakrishnan & Morris
[18] — the prior art the paper credits for using backoff delays as
priorities).

Span maintains a routing backbone in a dense network by electing a subset of
*coordinators* that stay awake while everyone else sleeps.  The election is
pure prioritized backoff, which is why the paper cites it: a node that sees
two neighbors with no path between them through existing coordinators
announces candidacy after a delay that shrinks with its remaining **energy**
and its **utility** (how many broken neighbor pairs it would bridge).
Overhearing another announcement re-evaluates — and usually cancels — a
pending candidacy: announcement/suppression again.

Implemented here on the same MAC/election machinery as everything else:

* neighbor sets come from HELLO beacons (one broadcast per node per round);
* a candidate's backoff is ``lam · ((1−energy) + (1−utility))/2 + jitter``
  (Span's formula, simplified to our two factors);
* coordinators re-evaluate each round and *withdraw* when every neighbor
  pair they bridge is covered redundantly, letting depleted nodes rotate
  out — the energy term then favors fresh replacements.

The invariants tested: the coordinator set dominates the network (every
node is a coordinator or hears one), bridges every 2-hop neighbor pair,
stays a small fraction of a dense network, and rotates with energy drain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.timer import CandidateTimer
from repro.mac.csma import CsmaMac
from repro.net.packet import DEFAULT_CTRL_SIZE, Packet, PacketKind, SeqCounter
from repro.phy.radio import Reception
from repro.sim.components import Component, SimContext

__all__ = ["CoordinatorConfig", "CoordinatorRole", "SpanCoordinator"]


class CoordinatorRole(enum.Enum):
    """A node's current position in the Span backbone lifecycle."""
    MEMBER = "member"
    CANDIDATE = "candidate"
    COORDINATOR = "coordinator"


@dataclass(frozen=True)
class CoordinatorConfig:
    """Timing and energy parameters of the coordinator election."""
    #: Evaluation round period (jittered per node).
    round_s: float = 1.0
    #: Full-scale candidacy backoff.
    lam: float = 0.1
    jitter: float = 0.01
    #: Rounds a coordinator serves before considering withdrawal.
    tenure_rounds: int = 3
    #: Energy drained per round of coordinator duty (fraction of full).
    duty_drain: float = 0.05
    packet_size: int = DEFAULT_CTRL_SIZE
    #: Forget neighbors not heard from for this many rounds.
    neighbor_ttl_rounds: int = 3


class SpanCoordinator(Component):
    """One node's Span agent: HELLO beacons, candidacy, withdrawal."""

    def __init__(self, ctx: SimContext, node_id: int, mac: CsmaMac,
                 config: CoordinatorConfig | None = None,
                 energy: float = 1.0):
        super().__init__(ctx, f"span[{node_id}]")
        self.node_id = node_id
        self.mac = mac
        self.config = config if config is not None else CoordinatorConfig()
        self.energy = energy
        self.role = CoordinatorRole.MEMBER
        self._rng = self.rng("span")
        self._seq = SeqCounter()
        #: neighbor -> (last-heard time, its neighbor set, is_coordinator)
        self._neighbors: dict[int, tuple[float, frozenset[int], bool]] = {}
        self._timer: Optional[CandidateTimer] = None
        self._withdraw_timer: Optional[CandidateTimer] = None
        self._tenure = 0
        self.announcements = 0
        self.withdrawals = 0

        mac.to_net.connect(self._on_packet)
        # Stagger the first beacon across the round.
        self.schedule(float(self._rng.uniform(0.0, self.config.round_s)),
                      self._round)

    # ------------------------------------------------------------- rounds

    def _round(self) -> None:
        self._expire_neighbors()
        self._beacon()
        if self.role == CoordinatorRole.COORDINATOR:
            self.energy = max(0.0, self.energy - self.config.duty_drain)
            self._tenure += 1
            if self._tenure >= self.config.tenure_rounds and self._redundant():
                # Withdrawal is itself a backoff race: the most depleted of
                # several mutually-redundant coordinators steps down first,
                # and the survivor (no longer redundant) cancels.  The scale
                # is the round period, so that races span the phase offset
                # between different nodes' evaluation rounds.
                delay = (self.config.round_s * self.energy +
                         float(self._rng.uniform(0.0, self.config.jitter)))
                if self._withdraw_timer is None:
                    self._withdraw_timer = CandidateTimer(self, self._try_withdraw)
                if not self._withdraw_timer.armed:
                    self._withdraw_timer.arm(delay)
        elif self.role == CoordinatorRole.MEMBER:
            self._evaluate_candidacy()
        jitter = float(self._rng.uniform(-0.05, 0.05)) * self.config.round_s
        self.schedule(self.config.round_s + jitter, self._round)

    def _beacon(self) -> None:
        payload = (
            "hello",
            frozenset(self._neighbors),
            self.role == CoordinatorRole.COORDINATOR,
        )
        self._send(payload)

    def _expire_neighbors(self) -> None:
        ttl = self.config.neighbor_ttl_rounds * self.config.round_s
        cutoff = self.now - ttl
        for nid in [n for n, (heard, _, _) in self._neighbors.items()
                    if heard < cutoff]:
            del self._neighbors[nid]

    # ---------------------------------------------------------- candidacy

    def _coordinator_ids(self) -> set[int]:
        ids = {nid for nid, (_, _, is_coord) in self._neighbors.items() if is_coord}
        if self.role == CoordinatorRole.COORDINATOR:
            ids.add(self.node_id)
        return ids

    def _uncovered_pairs(self, exclude_self: bool = False) -> tuple[int, int]:
        """(uncovered, total) neighbor pairs; a pair is covered when its two
        nodes are direct neighbors or share a coordinator neighbor."""
        coordinators = self._coordinator_ids()
        if exclude_self:
            coordinators.discard(self.node_id)
        ids = sorted(self._neighbors)
        uncovered = total = 0
        for i, a in enumerate(ids):
            _, a_nbrs, _ = self._neighbors[a]
            for b in ids[i + 1:]:
                _, b_nbrs, _ = self._neighbors[b]
                total += 1
                if b in a_nbrs or a in b_nbrs:
                    continue  # directly connected
                # A pair is bridged only by a *common* coordinator neighbor
                # (a relay both can actually reach) — a and b being
                # coordinators themselves connects them to nothing.
                if not (a_nbrs & b_nbrs & coordinators):
                    uncovered += 1
        return uncovered, total

    def _evaluate_candidacy(self) -> None:
        uncovered, total = self._uncovered_pairs()
        if uncovered == 0:
            if self._timer is not None:
                self._timer.suppress()
            return
        utility = uncovered / total if total else 1.0
        delay = (self.config.lam *
                 ((1.0 - self.energy) + (1.0 - utility)) / 2.0 +
                 float(self._rng.uniform(0.0, self.config.jitter)))
        self.role = CoordinatorRole.CANDIDATE
        if self._timer is None:
            self._timer = CandidateTimer(self, self._become_coordinator)
        self._timer.arm(delay)

    def _become_coordinator(self) -> None:
        # Re-check: announcements heard during the backoff may have covered
        # everything (the suppression path re-evaluates, but be safe).
        uncovered, _ = self._uncovered_pairs()
        if uncovered == 0:
            self.role = CoordinatorRole.MEMBER
            return
        self.role = CoordinatorRole.COORDINATOR
        self._tenure = 0
        self.announcements += 1
        self._send(("coord", True))

    def _redundant(self) -> bool:
        uncovered, _ = self._uncovered_pairs(exclude_self=True)
        return uncovered == 0

    def _try_withdraw(self) -> None:
        if self.role == CoordinatorRole.COORDINATOR and self._redundant():
            self._withdraw()

    def _withdraw(self) -> None:
        self.role = CoordinatorRole.MEMBER
        self.withdrawals += 1
        self._send(("coord", False))

    # ------------------------------------------------------------- wiring

    def _send(self, payload) -> None:
        self.mac.send(Packet(
            kind=PacketKind.ANNOUNCE,
            origin=self.node_id,
            seq=self._seq.next("span"),
            size_bytes=self.config.packet_size,
            created_at=self.now,
            payload=("span",) + payload,
        ))

    def _on_packet(self, packet: Packet, rx: Reception) -> None:
        payload = packet.payload
        if not (isinstance(payload, tuple) and payload and payload[0] == "span"):
            return
        tag = payload[1]
        if tag == "hello":
            _, _, their_neighbors, is_coord = payload
            self._neighbors[packet.origin] = (self.now, their_neighbors, is_coord)
        elif tag == "coord":
            becoming = payload[2]
            entry = self._neighbors.get(packet.origin)
            their_neighbors = entry[1] if entry else frozenset()
            self._neighbors[packet.origin] = (self.now, their_neighbors, becoming)
            if not becoming and self._withdraw_timer is not None \
                    and self._withdraw_timer.armed and not self._redundant():
                # A peer withdrew first; we are needed again.
                self._withdraw_timer.suppress()
            if becoming and self.role == CoordinatorRole.CANDIDATE:
                # Somebody answered the same need: re-evaluate; usually this
                # suppresses our pending candidacy.
                uncovered, _ = self._uncovered_pairs()
                if uncovered == 0 and self._timer is not None:
                    self._timer.suppress()
                    self.role = CoordinatorRole.MEMBER

    # -------------------------------------------------------------- views

    @property
    def is_coordinator(self) -> bool:
        return self.role == CoordinatorRole.COORDINATOR

    def known_coordinators(self) -> set[int]:
        return self._coordinator_ids()
