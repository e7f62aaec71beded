"""The Routeless Routing protocol (Section 4).

No route is stored anywhere: every data packet's next hop is decided *after*
the packet leaves the current hop, by a local leader election among the
receivers.  The moving parts, mapped to the paper:

* **Active node table** (§4.1) — each node's passively-learned hop distance
  to every origin it has overheard ("each entry consists of the identity of a
  target node and the number of hops from this target node to the node
  owning the table").
* **Path discovery** — counter-1 flooding of a discovery packet whose
  ``actual_hops`` field populates the tables ("in Routeless Routing counter-1
  flooding is used").
* **Path reply & data relay** — broadcast, never addressed to a next hop.
  Receivers compute :class:`~repro.core.backoff.HopCountBackoff` delays from
  their table distance versus the packet's ``expected_hops`` field; the
  election winner rebroadcasts with ``expected_hops`` set to its own table
  distance minus one.
* **Arbitration** — every transmitter (originator or relay) listens for the
  rebroadcast of its packet.  Hearing one, it broadcasts an acknowledgement
  (silencing election losers that missed the rebroadcast); hearing none
  within a timeout, it retransmits.  The target sends a final
  acknowledgement so the last relay stops.  Acknowledgements carry a
  *level* — the expected-hop count of the best copy the acker has witnessed
  (0 meaning delivered) — so one comparison rule scopes every ack to
  exactly the elections it makes redundant; an upstream arbiter's ack
  (higher level) is never mistaken for downstream progress.

One deliberate refinement over the paper's prose: a node whose election
timer is pending re-arms (rather than suppresses) when the duplicate it hears
is a *retransmission by the same sender* — otherwise an arbiter's retry would
silence the very fallback candidates it is trying to recruit.

Per packet a node keeps one relay record, keyed by uid; it doubles as the
duplicate test, so no separate duplicate cache is kept.

Failure resilience falls out of the structure: a dead next-hop simply loses
an election it never entered, and whoever else heard the packet relays
instead — no route repair, no control storm (the Figure 4 claim).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.core.backoff import BackoffInput, HopCountBackoff, RandomBackoff
from repro.core.timer import CandidateTimer
from repro.mac.csma import CsmaMac
from repro.net.base import NetworkProtocol, RouteDiscovery
from repro.net.packet import (
    DEFAULT_CTRL_SIZE,
    DEFAULT_DATA_SIZE,
    Packet,
    PacketKind,
    uid_fields,
)
from repro.obs.ledger import DropReason
from repro.phy.radio import Reception
from repro.sim.components import SimContext

__all__ = ["ActiveNodeTable", "RoutelessConfig", "RoutelessRouting", "RelayPhase"]


@dataclass
class _TableEntry:
    hops: int
    updated_at: float


class ActiveNodeTable:
    """Passively learned hop distances to overheard origins.

    Update rule: an equal-or-better distance is always accepted; a *worse*
    distance replaces the entry only once it has gone stale, which is how the
    table tracks topology changes without thrashing during a flood (where
    many long-way copies of the same packet arrive within milliseconds).
    """

    def __init__(self, stale_after: float = 10.0):
        self.stale_after = stale_after
        self._entries: dict[int, _TableEntry] = {}

    def update(self, target: int, hops: int, now: float) -> bool:
        """Record that we are ``hops`` from ``target``; True if accepted."""
        if hops < 0:
            raise ValueError("hops must be non-negative")
        entry = self._entries.get(target)
        if entry is None or hops <= entry.hops or now - entry.updated_at > self.stale_after:
            self._entries[target] = _TableEntry(hops, now)
            return True
        return False

    def hops_to(self, target: int) -> Optional[int]:
        entry = self._entries.get(target)
        return None if entry is None else entry.hops

    def knows(self, target: int) -> bool:
        return target in self._entries

    def __len__(self) -> int:
        return len(self._entries)


class RelayPhase(enum.Enum):
    BACKOFF = "backoff"       # election timer armed
    ARBITER = "arbiter"       # we transmitted; awaiting the next relay
    SUPPRESSED = "suppressed" # someone else relayed / an ack arrived
    DONE = "done"             # resolved (acked, delivered, or gave up)


@dataclass(slots=True)
class _RelayState:
    phase: RelayPhase
    timer: Optional[CandidateTimer] = None
    heard_from: Optional[int] = None      # MAC source of the copy we armed on
    pending: Optional[Packet] = None      # the copy we would forward
    my_expected: int = 0                  # expected_hops we stamped on our tx
    forwarded: Optional[Packet] = None    # what we actually put on air
    armed_delay: float = 0.0              # the election backoff we drew
    retries: int = 0
    arbiter_handle: object = None
    #: Last time an ack for this uid was sent by us *or* overheard; used to
    #: suppress redundant acknowledgements (one voice per neighborhood).
    last_ack: float = -1e18
    ack_handle: object = None
    #: Best (lowest) copy level witnessed for this uid, from relays or acks.
    witness_level: Optional[int] = None

    def note_witness(self, level: int) -> None:
        if self.witness_level is None or level < self.witness_level:
            self.witness_level = level


@dataclass(frozen=True)
class RoutelessConfig:
    #: λ of the backoff equation — the full-scale election delay (seconds).
    lam: float = 0.05
    #: Table-hops handicap for nodes with no entry for the target.
    unknown_penalty: int = 2
    #: Whether entry-less nodes compete at all (the failure-resilience
    #: fallback; disabling it is an ablation).
    participate_without_entry: bool = True
    #: Nodes whose table distance exceeds the packet's expectation by more
    #: than this sit the election out entirely — they are off the gradient.
    max_excess_hops: int = 2
    #: Random backoff bound for counter-1 flooding of discovery packets.
    discovery_backoff: float = 0.03
    #: Arbiter patience before retransmitting.  Must exceed the largest
    #: plausible election delay, λ·(unknown_penalty + 1).
    arbiter_timeout_s: float = 0.25
    max_relay_retries: int = 3
    #: Minimum spacing between acknowledgements a node emits (or needs to
    #: see) per packet — suppresses ack storms around redundant relays.
    ack_window_s: float = 0.05
    #: Patience for the whole discovery round trip before retrying.
    discovery_timeout_s: float = 2.0
    max_discovery_retries: int = 3
    data_size: int = DEFAULT_DATA_SIZE
    ctrl_size: int = DEFAULT_CTRL_SIZE
    table_stale_after: float = 10.0
    max_hops: int = 32
    max_pending_data: int = 64


class RoutelessRouting(NetworkProtocol):
    """One node's Routeless Routing entity."""

    PROTOCOL_NAME = "routeless"

    def __init__(self, ctx: SimContext, node_id: int, mac: CsmaMac,
                 config: RoutelessConfig | None = None, metrics=None):
        config = config if config is not None else RoutelessConfig()
        super().__init__(ctx, node_id, mac, self.PROTOCOL_NAME, metrics)
        self.config = config
        self.table = ActiveNodeTable(stale_after=config.table_stale_after)
        self._rng = self.rng("policy")
        self._relay_policy = HopCountBackoff(
            lam=config.lam, unknown_penalty=config.unknown_penalty
        )
        self._discovery_policy = RandomBackoff(max_delay=config.discovery_backoff)
        self._states: dict[int, _RelayState] = {}
        self.discovery = RouteDiscovery(
            self, send_request=self._send_discovery,
            route_known=self.table.knows, release=self._originate,
            timeout_s=config.discovery_timeout_s,
            max_retries=config.max_discovery_retries,
            max_pending=config.max_pending_data)

        # counters for tests and ablations
        self.relays = 0
        self.acks_sent = 0
        self.arbiter_retransmits = 0
        self.gave_up = 0
        self.data_dropped = 0

    # ------------------------------------------------------------------ app

    def send_data(self, target: int, size_bytes: int | None = None) -> Packet:
        packet = self.make_data(
            target, self.config.data_size if size_bytes is None else size_bytes
        )
        if self.table.knows(target):
            self._originate(packet)
        else:
            self.discovery.hold(packet)
        return packet

    def _originate(self, packet: Packet) -> None:
        hops = self.table.hops_to(packet.target)
        expected = max((hops or 1) - 1, 0)
        stamped = packet.with_fields(expected_hops=expected)
        self._transmit_and_arbitrate(stamped, expected)

    # -------------------------------------------------------- path discovery

    def _send_discovery(self, target: int) -> None:
        packet = Packet(
            kind=PacketKind.PATH_DISCOVERY,
            origin=self.node_id,
            seq=self.seq.next(PacketKind.PATH_DISCOVERY),
            target=target,
            size_bytes=self.config.ctrl_size,
            created_at=self.now,
        )
        self.mac.send(packet)

    # -------------------------------------------------------------- receive

    def on_mac_packet(self, packet: Packet, rx: Reception) -> None:
        if packet.origin == self.node_id and packet.kind != PacketKind.NET_ACK:
            # Our own packet echoed back by a relay: handled by the relay
            # state machine below for arbitration, but never re-learned.
            self._on_own_echo(packet, rx)
            return
        # Passive listening (§4.1): every packet teaches its receiver the
        # current distance to the packet's origin.
        if packet.origin != self.node_id:
            self.table.update(packet.origin, packet.actual_hops + 1, self.now)

        if packet.kind == PacketKind.PATH_DISCOVERY:
            self._on_discovery(packet, rx)
        elif packet.kind in (PacketKind.PATH_REPLY, PacketKind.DATA):
            self._on_election_packet(packet, rx)
        elif packet.kind == PacketKind.NET_ACK:
            self._on_net_ack(packet)

    def _on_own_echo(self, packet: Packet, rx: Reception) -> None:
        """A copy of a packet we originated came back (a relay's broadcast)."""
        state = self._states.get(packet.uid)
        if state is not None and state.phase == RelayPhase.ARBITER:
            if packet.expected_hops <= state.my_expected:
                state.note_witness(packet.expected_hops)
                self._ack_and_finish(state, packet.uid, packet.target,
                                     witnessed=packet.expected_hops)

    # ---- discovery flooding (counter-1 inside the protocol)

    def _on_discovery(self, packet: Packet, rx: Reception) -> None:
        uid = packet.uid
        state = self._states.get(uid)
        if state is not None:
            if state.phase == RelayPhase.BACKOFF:
                state.timer.suppress()
                state.phase = RelayPhase.SUPPRESSED
            return
        if packet.target == self.node_id:
            self._states[uid] = _RelayState(phase=RelayPhase.DONE)
            self._send_reply(packet)
            return
        if packet.actual_hops + 1 >= self.config.max_hops:
            self._states[uid] = _RelayState(phase=RelayPhase.DONE)
            if self.ctx.observing:
                self.obs_drop(packet, DropReason.TTL_EXPIRED,
                              hops=packet.actual_hops + 1)
            return
        state = _RelayState(phase=RelayPhase.BACKOFF, heard_from=rx.src,
                            pending=packet)
        delay = self._discovery_policy.delay(BackoffInput(rng=self._rng))
        state.timer = CandidateTimer(self, lambda: self._relay_discovery(uid))
        state.timer.arm(delay)
        self._states[uid] = state

    def _relay_discovery(self, uid: int) -> None:
        state = self._states.get(uid)
        if state is None or state.pending is None:
            return
        state.phase = RelayPhase.DONE
        self.relays += 1
        self.mac.send(state.pending.forwarded(self.node_id))

    def _send_reply(self, discovery: Packet) -> None:
        source = discovery.origin
        hops = self.table.hops_to(source)
        # We just updated the table from this very discovery packet, so the
        # entry always exists; assert the invariant rather than guess.
        assert hops is not None, "table must know the source after a discovery"
        expected = max(hops - 1, 0)
        reply = Packet(
            kind=PacketKind.PATH_REPLY,
            origin=self.node_id,
            seq=self.seq.next(PacketKind.PATH_REPLY),
            target=source,
            size_bytes=self.config.ctrl_size,
            created_at=self.now,
            expected_hops=expected,
            ref_seq=discovery.seq,
        )
        self._transmit_and_arbitrate(reply, expected)

    # ---- reply/data relay election

    def _on_election_packet(self, packet: Packet, rx: Reception) -> None:
        uid = packet.uid
        state = self._states.get(uid)

        if packet.target == self.node_id:
            self._on_reached_target(packet, rx)
            return

        if state is None:
            if packet.actual_hops + 1 >= self.config.max_hops:
                self._states[uid] = _RelayState(phase=RelayPhase.DONE)
                if self.ctx.observing:
                    self.obs_drop(packet, DropReason.TTL_EXPIRED,
                                  hops=packet.actual_hops + 1)
                return
            table_hops = self.table.hops_to(packet.target)
            if table_hops is None and not self.config.participate_without_entry:
                self._states[uid] = _RelayState(phase=RelayPhase.SUPPRESSED)
                return
            if (table_hops is not None
                    and table_hops - packet.expected_hops > self.config.max_excess_hops):
                # We are demonstrably far off the gradient toward the target;
                # relaying would diffuse the packet, not deliver it.  (Nodes
                # with *unknown* distance still compete, penalized — that is
                # the failure-resilience fallback.)
                self._states[uid] = _RelayState(phase=RelayPhase.SUPPRESSED,
                                                heard_from=rx.src, pending=packet)
                return
            state = _RelayState(phase=RelayPhase.BACKOFF, heard_from=rx.src,
                                pending=packet)
            delay = self._relay_policy.delay(BackoffInput(
                rng=self._rng,
                table_hops=table_hops,
                expected_hops=packet.expected_hops,
            ))
            state.timer = CandidateTimer(self, lambda: self._relay_fire(uid))
            state.timer.arm(delay)
            state.armed_delay = delay
            self._states[uid] = state
            return

        # Duplicate handling depends on our phase.  Throughout, a copy's
        # ``expected_hops`` is its *level*: the election it opens.  A copy at
        # a level below the one we armed on is the chain moving past us; a
        # copy at our level or above is lateral redundancy or an upstream
        # retransmission and says nothing about whether *our* level is
        # served.
        if state.phase == RelayPhase.BACKOFF:
            state.note_witness(packet.expected_hops)
            if rx.src == state.heard_from and packet.expected_hops >= state.pending.expected_hops:
                # Retransmission by the same arbiter: a fresh election
                # attempt, not evidence that somebody relayed.  Re-arm.
                delay = self._relay_policy.delay(BackoffInput(
                    rng=self._rng,
                    table_hops=self.table.hops_to(packet.target),
                    expected_hops=packet.expected_hops,
                ))
                state.timer.arm(delay)
                state.armed_delay = delay
            else:
                # The paper's rule: hearing the same packet again cancels the
                # backoff.  This prunes forked chains aggressively — and when
                # it over-prunes (two simultaneous winners mutually silence
                # all candidates), the arbiter retransmission below recovers.
                state.timer.suppress()
                state.phase = RelayPhase.SUPPRESSED
                if self.ctx.observing:
                    self.obs_suppress(packet, how="rebroadcast_heard")
        elif state.phase == RelayPhase.ARBITER:
            # "If it captures the rebroadcast of the same packet by another
            # node, it will immediately, as an arbiter, transmit an
            # acknowledgement packet."  A copy at or below our own level
            # qualifies (thanks to the expected-hops ceiling, every relay of
            # our transmission does); an upstream arbiter's retransmission
            # (higher level) does not — and must not, or both ends of a hop
            # would declare it done with nobody carrying the packet forward.
            if packet.expected_hops <= state.my_expected:
                state.note_witness(packet.expected_hops)
                self._ack_and_finish(state, uid, packet.target,
                                     witnessed=packet.expected_hops)
        elif state.phase == RelayPhase.SUPPRESSED:
            # We were silenced because we witnessed progress.  A copy at or
            # above the level we armed on means its sender missed that
            # evidence — answer with an ack naming the best level we saw.
            # A progressing duplicate is the live chain passing by: note it,
            # stay out of the way.
            state.note_witness(packet.expected_hops)
            if state.pending is None or packet.expected_hops >= state.pending.expected_hops:
                self._schedule_suppressed_ack(state, uid, packet.target)
        # DONE: nothing to do.

    def _on_reached_target(self, packet: Packet, rx: Reception) -> None:
        uid = packet.uid
        state = self._states.get(uid)
        # Only reaching the target makes a record DONE here; one an ack
        # created (SUPPRESSED) must not stop the first copy's delivery.
        first = state is None or state.phase != RelayPhase.DONE
        if first:
            state = _RelayState(phase=RelayPhase.DONE)
            self._states[uid] = state
            if packet.kind == PacketKind.DATA:
                self.deliver_up(packet, rx)
            else:  # PATH_REPLY back at the source: the path is discovered
                self.discovery.succeeded(packet.origin)
        # Duplicate copies mean somebody upstream has not heard that the
        # packet already arrived — but one ack per ack-window is plenty.
        state.note_witness(0)
        if self.now - state.last_ack >= self.config.ack_window_s or first:
            state.last_ack = self.now
            self._send_net_ack(uid, packet.target, level=0)

    def _relay_fire(self, uid: int) -> None:
        state = self._states.get(uid)
        if state is None or state.pending is None:
            return
        packet = state.pending
        table_hops = self.table.hops_to(packet.target)
        # Our advertised expectation never exceeds the chain's previous
        # expectation minus one: a fallback relay (worse or unknown table
        # distance) must not inflate the field, or a duplicate-winner chain
        # wanders outward recruiting ever-farther candidates.
        ceiling = max(packet.expected_hops - 1, 0)
        if table_hops is not None:
            my_expected = min(max(table_hops - 1, 0), ceiling)
        else:
            my_expected = ceiling
        state.my_expected = my_expected
        self.relays += 1
        forwarded = packet.forwarded(self.node_id, expected_hops=my_expected)
        state.forwarded = forwarded
        if self.ctx.observing:
            self.obs_forward(packet, backoff_s=state.armed_delay,
                             expected_hops=my_expected)
            self.ctx.obs.on_election_win(self.now, self.node_id, packet.uid,
                                         self.PROTOCOL_NAME, state.armed_delay)
        self.mac.send(forwarded, priority=0.0)
        self._enter_arbiter(state, uid)

    # ---- arbitration

    def _transmit_and_arbitrate(self, packet: Packet, my_expected: int) -> None:
        state = _RelayState(phase=RelayPhase.BACKOFF, my_expected=my_expected,
                            forwarded=packet)
        self._states[packet.uid] = state
        self.mac.send(packet)
        self._enter_arbiter(state, packet.uid)

    def _enter_arbiter(self, state: _RelayState, uid: int) -> None:
        state.phase = RelayPhase.ARBITER
        # Jittered: two arbiters that transmitted near-simultaneously (and
        # mutually silenced each other's candidates) must not also retransmit
        # in lockstep, or the next election round collides the same way.
        timeout = self.config.arbiter_timeout_s * (1.0 + float(self._rng.uniform(0.0, 0.5)))
        state.arbiter_handle = self.schedule(timeout, self._arbiter_timeout, uid)

    def _arbiter_timeout(self, uid: int) -> None:
        state = self._states.get(uid)
        if state is None or state.phase != RelayPhase.ARBITER:
            return
        state.retries += 1
        if state.retries > self.config.max_relay_retries:
            state.phase = RelayPhase.DONE
            self.gave_up += 1
            if self.ctx.observing and state.forwarded is not None:
                # No receiver ever relayed, despite our retransmissions.
                self.obs_drop(state.forwarded, DropReason.NO_FORWARDER,
                              retries=state.retries - 1)
            return
        self.arbiter_retransmits += 1
        self.mac.send(state.forwarded)
        state.arbiter_handle = self.schedule(
            self.config.arbiter_timeout_s, self._arbiter_timeout, uid
        )

    def _ack_and_finish(self, state: _RelayState, uid: int,
                        target: int | None, witnessed: int) -> None:
        state.phase = RelayPhase.DONE
        if state.arbiter_handle is not None:
            state.arbiter_handle.cancel()
            state.arbiter_handle = None
        # Our own copy may still be sitting in the MAC queue (we "relayed"
        # into a busy medium and somebody else got through first) — withdraw
        # it rather than add redundancy.
        self.mac.cancel_send(uid)
        # Resolution acks always go out (once per node per packet — phase is
        # DONE now).  Rate-limiting them against *overheard* acks would be
        # wrong: a neighbor's ack covered its neighborhood, not ours, and
        # our election losers are waiting on ours.
        state.last_ack = self.now
        self._send_net_ack(uid, target, level=witnessed)

    def _schedule_suppressed_ack(self, state: _RelayState, uid: int,
                                 target: int | None) -> None:
        if state.ack_handle is not None:
            return  # one pending answer is enough
        if self.now - state.last_ack < self.config.ack_window_s:
            return

        def fire() -> None:
            state.ack_handle = None
            if self.now - state.last_ack < self.config.ack_window_s:
                return  # somebody answered while we waited
            state.last_ack = self.now
            level = state.witness_level if state.witness_level is not None else 0
            self._send_net_ack(uid, target, level=level)

        jitter = float(self._rng.uniform(0.0, self.config.lam / 2))
        state.ack_handle = self.schedule(jitter, fire)

    def _send_net_ack(self, uid: int, target: int | None, level: int) -> None:
        """Broadcast "a copy of ``uid`` at ``level`` is on the air" (0 from
        the target means delivered).  The level scopes the ack: it silences
        exactly the elections it makes redundant."""
        ack = Packet(
            kind=PacketKind.NET_ACK,
            origin=self.node_id,
            seq=self.seq.next(PacketKind.NET_ACK),
            target=target,
            size_bytes=self.config.ctrl_size,
            created_at=self.now,
            expected_hops=level,
            ref_seq=uid_fields(uid)[2],
            payload=uid,
        )
        self.acks_sent += 1
        self.mac.send(ack)

    def _on_net_ack(self, packet: Packet) -> None:
        uid = packet.payload
        state = self._states.get(uid)
        if state is None:
            # An ack for a packet we never heard: remember it as resolved so
            # a late first copy does not trigger a pointless election.
            state = _RelayState(phase=RelayPhase.SUPPRESSED)
            state.last_ack = self.now
            state.note_witness(packet.expected_hops)
            self._states[uid] = state
            return
        state.last_ack = self.now
        state.note_witness(packet.expected_hops)
        if state.ack_handle is not None:
            state.ack_handle.cancel()
            state.ack_handle = None
        level = packet.expected_hops
        if state.phase == RelayPhase.BACKOFF:
            # The ack confirms a copy at ``level``.  If that is below the
            # level we armed on, our election is already served (this is the
            # paper's "notifying those nodes not detecting the rebroadcast").
            # An ack about an *upstream* copy says nothing about our level.
            armed_level = state.pending.expected_hops if state.pending is not None else 0
            if level < armed_level or level == 0:
                state.timer.suppress()
                state.phase = RelayPhase.SUPPRESSED
                if self.ctx.observing and state.pending is not None:
                    self.obs_suppress(state.pending, how="ack_heard")
        elif state.phase == RelayPhase.ARBITER:
            if level < state.my_expected or level == 0:
                state.phase = RelayPhase.DONE
                if state.arbiter_handle is not None:
                    state.arbiter_handle.cancel()
                    state.arbiter_handle = None
                self.mac.cancel_send(uid)
