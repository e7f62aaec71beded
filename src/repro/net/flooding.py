"""Flooding protocols as instances of local leader election.

Section 3 frames packet forwarding in flooding as a local leader election:
the end of a packet's transmission is the implicit synchronization point, and
the receivers compete — with metric-derived backoffs — for the right to
rebroadcast.  One configurable protocol class therefore covers the paper's
whole flooding family:

* **Blind ("original") flooding** — every node rebroadcasts the first copy of
  every packet after a short random delay; hearing the packet again does
  *not* suppress the pending rebroadcast.  This is the route-discovery
  flooding the paper's AODV implementation uses.
* **Counter-1 flooding** [19] — like blind flooding, but a node that hears
  the same packet again *before its own backoff expires* cancels the
  rebroadcast (the counter-based scheme of the broadcast-storm paper with a
  threshold of one).  Backoffs are random, so the election winner is
  arbitrary.
* **SSAF** — counter-1 flooding with the backoff derived from received
  signal strength (see :class:`~repro.core.backoff.SignalStrengthBackoff`):
  likely-distant receivers win the election, rebroadcasts cover more fresh
  area, hop counts shrink and delivery rises.  Pair it with the MAC priority
  queue so short-backoff packets also overtake within a node (the paper's
  explanation for the delay advantage under load).

A suppressing node that loses the election after its timer fired withdraws
its relay from the MAC by uid (:meth:`~repro.mac.csma.CsmaMac.cancel_send`)
if it is not yet on the air.  Per packet a node keeps only its duplicate
cache and the timers still armed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.backoff import BackoffInput, BackoffPolicy, RandomBackoff, SignalStrengthBackoff
from repro.core.timer import CandidateTimer
from repro.mac.csma import CsmaMac
from repro.net.base import NetworkProtocol
from repro.net.packet import DEFAULT_DATA_SIZE, Packet, PacketKind
from repro.obs.ledger import DropReason
from repro.phy.radio import Reception
from repro.sim.components import SimContext

__all__ = [
    "FloodingConfig",
    "ElectionFlooding",
    "BlindFlooding",
    "Counter1Flooding",
    "SSAF",
]


@dataclass(frozen=True)
class FloodingConfig:
    policy: BackoffPolicy = field(default_factory=RandomBackoff)
    #: Cancel a pending rebroadcast on hearing a duplicate (counter-1 rule).
    suppress_on_duplicate: bool = True
    #: Hop budget; packets are not rebroadcast beyond this many hops.
    max_hops: int = 32
    data_size: int = DEFAULT_DATA_SIZE


class ElectionFlooding(NetworkProtocol):
    """The election-structured flooding engine behind all three variants."""

    PROTOCOL_NAME = "flood"

    def __init__(self, ctx: SimContext, node_id: int, mac: CsmaMac,
                 config: FloodingConfig, metrics=None):
        super().__init__(ctx, node_id, mac, self.PROTOCOL_NAME, metrics)
        self.config = config
        self._policy_rng = self.rng("policy")
        self._timers: dict[int, CandidateTimer] = {}
        # counters for tests / ablations
        self.rebroadcasts = 0
        self.suppressed = 0

    # ---------------------------------------------------------------- sends

    def send_data(self, target: int, size_bytes: int | None = None) -> Packet:
        packet = self.make_data(
            target, self.config.data_size if size_bytes is None else size_bytes
        )
        self.dup_cache.record(packet)
        # The source is trivially the leader for hop zero: transmit at once.
        self.mac.send(packet)
        return packet

    # ------------------------------------------------------------- receives

    def observe(self, packet: Packet, rx: Reception) -> BackoffInput:
        """What this node knows at the implicit sync point.  Subclasses with
        richer knowledge (e.g. oracle location) override this."""
        return BackoffInput(
            rng=self._policy_rng,
            rx_power_dbm=rx.power_dbm,
            expected_hops=packet.expected_hops,
        )

    def on_mac_packet(self, packet: Packet, rx: Reception) -> None:
        if packet.kind != PacketKind.DATA:
            return
        if not self.dup_cache.record(packet):
            self._on_duplicate(packet)
            return
        if packet.target == self.node_id:
            self.deliver_up(packet, rx)
            return  # the destination never needs to rebroadcast
        if packet.actual_hops + 1 >= self.config.max_hops:
            if self.ctx.observing:
                self.obs_drop(packet, DropReason.TTL_EXPIRED,
                              hops=packet.actual_hops + 1)
            return
        delay = self.config.policy.delay(self.observe(packet, rx))
        timer = CandidateTimer(self, lambda: self._rebroadcast(packet, delay))
        self._timers[packet.uid] = timer
        timer.arm(delay)

    def _on_duplicate(self, packet: Packet) -> None:
        if not self.config.suppress_on_duplicate:
            if self.ctx.observing:
                self.obs_drop(packet, DropReason.DUPLICATE)
            return
        timer = self._timers.pop(packet.uid, None)
        if timer is not None and timer.suppress():
            self.suppressed += 1
            if self.ctx.observing:
                self.obs_suppress(packet, how="timer")
            return
        # The election may be lost after the timer fired but before our copy
        # reached the air; withdraw it from the MAC if it is still queued.
        if self.mac.cancel_send(packet.uid):
            self.rebroadcasts -= 1
            self.suppressed += 1
            if self.ctx.observing:
                self.obs_suppress(packet, how="queued_cancel")
            return
        if self.ctx.observing:
            # Plain discarded duplicate: we already relayed (or never armed).
            self.obs_drop(packet, DropReason.DUPLICATE)

    def _rebroadcast(self, packet: Packet, backoff_used: float) -> None:
        self._timers.pop(packet.uid, None)
        self.rebroadcasts += 1
        forwarded = packet.forwarded(self.node_id)
        if self.ctx.observing:
            self.obs_forward(packet, backoff_s=backoff_used)
            self.ctx.obs.on_election_win(self.now, self.node_id, packet.uid,
                                         self.PROTOCOL_NAME, backoff_used)
        # The election backoff doubles as the intra-node queue priority: with
        # the MAC priority queue, urgent relays overtake queued laggards.
        self.mac.send(forwarded, priority=backoff_used)


class BlindFlooding(ElectionFlooding):
    """Original flooding: first copy always rebroadcast, no suppression."""

    PROTOCOL_NAME = "blind_flood"

    def __init__(self, ctx: SimContext, node_id: int, mac: CsmaMac,
                 config: FloodingConfig | None = None, metrics=None,
                 max_backoff: float = 0.01):
        if config is None:
            config = FloodingConfig(
                policy=RandomBackoff(max_delay=max_backoff),
                suppress_on_duplicate=False,
            )
        super().__init__(ctx, node_id, mac, config, metrics)


class Counter1Flooding(ElectionFlooding):
    """Duplicate-suppressing flooding with a random (unprioritized) backoff."""

    PROTOCOL_NAME = "counter1"

    def __init__(self, ctx: SimContext, node_id: int, mac: CsmaMac,
                 config: FloodingConfig | None = None, metrics=None,
                 max_backoff: float = 0.05):
        if config is None:
            config = FloodingConfig(
                policy=RandomBackoff(max_delay=max_backoff),
                suppress_on_duplicate=True,
            )
        super().__init__(ctx, node_id, mac, config, metrics)


class SSAF(ElectionFlooding):
    """Signal Strength Aware Flooding (Section 3)."""

    PROTOCOL_NAME = "ssaf"

    def __init__(self, ctx: SimContext, node_id: int, mac: CsmaMac,
                 config: FloodingConfig | None = None, metrics=None,
                 lam: float = 0.05, rx_threshold_dbm: float = -64.0):
        if config is None:
            config = FloodingConfig(
                policy=SignalStrengthBackoff(lam=lam, rx_threshold_dbm=rx_threshold_dbm),
                suppress_on_duplicate=True,
            )
        super().__init__(ctx, node_id, mac, config, metrics)
