"""Gradient Routing baseline (Poor [32]), the paper's closest prior work.

Section 4.4: "in Gradient Routing only nodes with a smaller hop count to the
destination are allowed to forward packets ... every node with a smaller hop
count may retransmit the same packet, resulting in a significant increase in
the number of packet transmissions.  In fact, the main drawback of Gradient
Routing is that it makes the network more congested."

Implemented accordingly: hop distances are learned exactly like Routeless
Routing's active node table (flooded discovery plus passive listening), but
relaying is *not* an election — every node that (a) has not yet relayed this
packet and (b) sits strictly closer to the target than the transmitter
rebroadcasts after a short collision-avoidance jitter.  No suppression, no
arbiter.  The redundancy buys delivery robustness at a steep transmission
cost, which the ablation bench quantifies against Routeless Routing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.backoff import BackoffInput, RandomBackoff
from repro.mac.csma import CsmaMac
from repro.net.base import NetworkProtocol, RouteDiscovery
from repro.net.packet import (
    DEFAULT_CTRL_SIZE,
    DEFAULT_DATA_SIZE,
    Packet,
    PacketKind,
)
from repro.net.routeless import ActiveNodeTable
from repro.obs.ledger import DropReason
from repro.phy.radio import Reception
from repro.sim.components import SimContext

__all__ = ["GradientConfig", "GradientRouting"]


@dataclass(frozen=True)
class GradientConfig:
    #: Collision-avoidance jitter before a qualifying node rebroadcasts.
    jitter_s: float = 0.01
    discovery_backoff: float = 0.03
    discovery_timeout_s: float = 2.0
    max_discovery_retries: int = 3
    data_size: int = DEFAULT_DATA_SIZE
    ctrl_size: int = DEFAULT_CTRL_SIZE
    table_stale_after: float = 10.0
    max_hops: int = 32
    max_pending_data: int = 64


class GradientRouting(NetworkProtocol):
    """One node's Gradient Routing entity."""

    PROTOCOL_NAME = "gradient"

    def __init__(self, ctx: SimContext, node_id: int, mac: CsmaMac,
                 config: GradientConfig | None = None, metrics=None):
        config = config if config is not None else GradientConfig()
        super().__init__(ctx, node_id, mac, self.PROTOCOL_NAME, metrics)
        self.config = config
        self.table = ActiveNodeTable(stale_after=config.table_stale_after)
        self._rng = self.rng("jitter")
        self._discovery_policy = RandomBackoff(max_delay=config.discovery_backoff)
        self.discovery = RouteDiscovery(
            self, send_request=self._send_discovery,
            route_known=self.table.knows, release=self._originate,
            timeout_s=config.discovery_timeout_s,
            max_retries=config.max_discovery_retries,
            max_pending=config.max_pending_data)
        self.relays = 0
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
        budget = self.table.hops_to(packet.target)
        stamped = packet.with_fields(expected_hops=budget if budget is not None else 0)
        self.dup_cache.record(stamped)
        self.mac.send(stamped)

    # ------------------------------------------------------------ discovery

    def _send_discovery(self, target: int) -> None:
        packet = Packet(
            kind=PacketKind.PATH_DISCOVERY,
            origin=self.node_id,
            seq=self.seq.next(PacketKind.PATH_DISCOVERY),
            target=target,
            size_bytes=self.config.ctrl_size,
            created_at=self.now,
        )
        self.dup_cache.record(packet)
        self.mac.send(packet)

    # -------------------------------------------------------------- receive

    def on_mac_packet(self, packet: Packet, rx: Reception) -> None:
        if packet.origin == self.node_id:
            return
        self.table.update(packet.origin, packet.actual_hops + 1, self.now)

        if packet.kind == PacketKind.PATH_DISCOVERY:
            self._on_discovery(packet)
        elif packet.kind in (PacketKind.DATA, PacketKind.PATH_REPLY):
            self._on_data(packet, rx)

    def _on_discovery(self, packet: Packet) -> None:
        if not self.dup_cache.record(packet):
            return
        if packet.target == self.node_id:
            # The gradient back to the requester now exists network-wide; a
            # short reply builds the *forward* gradient toward us (the
            # requester needs our distance field, not a route).
            reply = Packet(
                kind=PacketKind.PATH_REPLY,
                origin=self.node_id,
                seq=self.seq.next(PacketKind.PATH_REPLY),
                target=packet.origin,
                size_bytes=self.config.ctrl_size,
                created_at=self.now,
                expected_hops=packet.actual_hops + 1,
            )
            self.dup_cache.record(reply)
            self.mac.send(reply)
            return
        if packet.actual_hops + 1 >= self.config.max_hops:
            return
        delay = self._discovery_policy.delay(BackoffInput(rng=self._rng))
        self.schedule(delay, self.mac.send, packet.forwarded(self.node_id))

    def _on_data(self, packet: Packet, rx: Reception) -> None:
        if packet.target == self.node_id:
            if self.dup_cache.record(packet):
                if packet.kind == PacketKind.DATA:
                    self.deliver_up(packet, rx)
                self.discovery.succeeded(packet.origin)
            return
        if not self.dup_cache.record(packet):
            if self.ctx.observing:
                self.obs_drop(packet, DropReason.DUPLICATE)
            return  # each node relays a given packet at most once
        if packet.actual_hops + 1 >= self.config.max_hops:
            if self.ctx.observing:
                self.obs_drop(packet, DropReason.TTL_EXPIRED,
                              hops=packet.actual_hops + 1)
            return
        mine = self.table.hops_to(packet.target)
        if mine is None or mine >= packet.expected_hops:
            if self.ctx.observing:
                self.obs_suppress(packet, how="off_gradient")
            return  # only strictly-closer nodes may forward
        jitter = float(self._rng.uniform(0.0, self.config.jitter_s))
        if self.ctx.observing:
            self.obs_forward(packet, expected_hops=mine)
        forwarded = packet.forwarded(self.node_id, expected_hops=mine)
        self.relays += 1
        self.schedule(jitter, self.mac.send, forwarded)
