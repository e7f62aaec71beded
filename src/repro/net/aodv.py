"""AODV baseline (Perkins & Royer [28]), as the paper's comparison point.

A classic on-demand distance-vector protocol with explicit routes — the
antithesis of Routeless Routing and the foil for Figures 3 and 4:

* **Route discovery** — the source floods a RREQ; per the paper, "in this
  particular implementation of AODV, the route discovery procedure is based
  on original flooding" (first-copy rebroadcast with duplicate suppression
  but *no* counter-based cancellation — every node forwards every new RREQ).
  Each receiver learns a reverse route toward the origin from the RREQ's
  traveled hop count.
* **Route reply** — the destination unicasts a RREP back along the reverse
  path; intermediate nodes learn the forward route.
* **Data forwarding** — hop-by-hop unicast with MAC-level acknowledgements.
* **Route maintenance** — a MAC unicast that exhausts its retries marks the
  link broken: routes through the dead next hop are invalidated, a RERR
  propagates toward affected sources, and sources re-discover.  This is the
  machinery whose cost grows with the failure rate in Figure 4.

Deliberate simplifications (none of which favor Routeless Routing): no
destination sequence numbers (topologies are static except for transceiver
failures, so stale-route loops cannot form the way they do under mobility),
no intermediate-node RREP, no hello beacons (link failure is detected by
data-plane ack failure, which the paper describes as the slow path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mac.csma import CsmaMac
from repro.net.base import NetworkProtocol, RouteDiscovery
from repro.net.packet import (
    DEFAULT_CTRL_SIZE,
    DEFAULT_DATA_SIZE,
    Packet,
    PacketKind,
)
from repro.obs.ledger import DropReason
from repro.phy.radio import Reception
from repro.sim.components import SimContext

__all__ = ["AodvConfig", "Route", "Aodv"]


@dataclass
class Route:
    next_hop: int
    hops: int
    expires_at: float
    valid: bool = True


@dataclass(frozen=True)
class AodvConfig:
    route_lifetime_s: float = 300.0
    rreq_timeout_s: float = 1.0
    max_rreq_retries: int = 3
    #: Jitter before rebroadcasting a RREQ (collision avoidance only).
    rreq_jitter_s: float = 0.01
    data_size: int = DEFAULT_DATA_SIZE
    ctrl_size: int = DEFAULT_CTRL_SIZE
    max_hops: int = 32
    max_pending_data: int = 64


class Aodv(NetworkProtocol):
    """One node's AODV entity."""

    PROTOCOL_NAME = "aodv"

    def __init__(self, ctx: SimContext, node_id: int, mac: CsmaMac,
                 config: AodvConfig | None = None, metrics=None):
        config = config if config is not None else AodvConfig()
        super().__init__(ctx, node_id, mac, self.PROTOCOL_NAME, metrics)
        self.config = config
        self.routes: dict[int, Route] = {}
        self.discovery = RouteDiscovery(
            self, send_request=self._send_rreq,
            route_known=self._valid_route, release=self._dispatch_data,
            timeout_s=config.rreq_timeout_s,
            max_retries=config.max_rreq_retries,
            max_pending=config.max_pending_data)
        self._rng = self.rng("jitter")

        # counters for tests and ablations
        self.rreqs_sent = 0
        self.rreps_sent = 0
        self.rerrs_sent = 0
        self.data_forwarded = 0
        self.data_dropped = 0
        self.link_failures = 0

    # ------------------------------------------------------------------ app

    def send_data(self, target: int, size_bytes: int | None = None) -> Packet:
        packet = self.make_data(
            target, self.config.data_size if size_bytes is None else size_bytes
        )
        self._dispatch_data(packet)
        return packet

    def _dispatch_data(self, packet: Packet) -> None:
        route = self._valid_route(packet.target)
        if route is not None:
            self._touch(packet.target, route)
            self.mac.send(packet, dst=route.next_hop)
        else:
            self.discovery.hold(packet)

    # ------------------------------------------------------------ discovery

    def _send_rreq(self, target: int) -> None:
        packet = Packet(
            kind=PacketKind.RREQ,
            origin=self.node_id,
            seq=self.seq.next(PacketKind.RREQ),
            target=target,
            size_bytes=self.config.ctrl_size,
            created_at=self.now,
        )
        self.dup_cache.record(packet)
        self.rreqs_sent += 1
        self.mac.send(packet)

    # -------------------------------------------------------------- receive

    def on_mac_packet(self, packet: Packet, rx: Reception) -> None:
        if packet.origin == self.node_id:
            return  # our own flood echoing back
        if packet.kind == PacketKind.RREQ:
            self._on_rreq(packet, rx)
        elif packet.kind == PacketKind.RREP:
            self._on_rrep(packet, rx)
        elif packet.kind == PacketKind.DATA:
            self._on_data(packet, rx)
        elif packet.kind == PacketKind.RERR:
            self._on_rerr(packet, rx)

    def _on_rreq(self, packet: Packet, rx: Reception) -> None:
        if not self.dup_cache.record(packet):
            # duplicate suppression — but never backoff cancellation
            if self.ctx.observing:
                self.obs_drop(packet, DropReason.DUPLICATE)
            return
        self._learn(packet.origin, rx.src, packet.actual_hops + 1)
        if packet.target == self.node_id:
            self._send_rrep(packet, rx)
            return
        if packet.actual_hops + 1 >= self.config.max_hops:
            if self.ctx.observing:
                self.obs_drop(packet, DropReason.TTL_EXPIRED,
                              hops=packet.actual_hops + 1)
            return
        jitter = float(self._rng.uniform(0.0, self.config.rreq_jitter_s))
        forwarded = packet.forwarded(self.node_id)
        self.schedule(jitter, self.mac.send, forwarded)

    def _send_rrep(self, rreq: Packet, rx: Reception) -> None:
        reply = Packet(
            kind=PacketKind.RREP,
            origin=self.node_id,
            seq=self.seq.next(PacketKind.RREP),
            target=rreq.origin,
            size_bytes=self.config.ctrl_size,
            created_at=self.now,
            ref_seq=rreq.seq,
        )
        self.rreps_sent += 1
        # The reverse route we just learned points at rx.src.
        self.mac.send(reply, dst=rx.src)

    def _on_rrep(self, packet: Packet, rx: Reception) -> None:
        self._learn(packet.origin, rx.src, packet.actual_hops + 1)
        if packet.target == self.node_id:
            self.discovery.succeeded(packet.origin)
            return
        route = self._valid_route(packet.target)
        if route is None:
            return  # reverse route evaporated; the source will retry
        self.mac.send(packet.forwarded(self.node_id), dst=route.next_hop)

    def _on_data(self, packet: Packet, rx: Reception) -> None:
        # MAC retransmission after a lost ack can deliver the same packet
        # twice; forwarding it twice would double-count transmissions.
        if not self.dup_cache.record(packet):
            if self.ctx.observing:
                self.obs_drop(packet, DropReason.DUPLICATE)
            return
        if packet.target == self.node_id:
            self.deliver_up(packet, rx)
            return
        route = self._valid_route(packet.target)
        if route is None:
            self.data_dropped += 1
            if self.ctx.observing:
                self.obs_drop(packet, DropReason.NO_ROUTE,
                              target=packet.target)
            self._send_rerr({packet.target})
            return
        self._touch(packet.target, route)
        self.data_forwarded += 1
        if self.ctx.observing:
            self.obs_forward(packet, next_hop=route.next_hop)
        self.mac.send(packet.forwarded(self.node_id), dst=route.next_hop)

    # ------------------------------------------------------- route handling

    def _learn(self, dest: int, next_hop: int, hops: int) -> None:
        route = self.routes.get(dest)
        if route is None or not route.valid or hops <= route.hops:
            self.routes[dest] = Route(
                next_hop=next_hop,
                hops=hops,
                expires_at=self.now + self.config.route_lifetime_s,
            )
        # RFC 3561: data buffered for ``dest`` leaves as soon as any route
        # exists, also one learned in passing, so it keeps its FIFO order
        # ahead of packets sent later.
        if dest in self.discovery and self._valid_route(dest) is not None:
            self.discovery.succeeded(dest)

    def _valid_route(self, dest: int) -> Optional[Route]:
        route = self.routes.get(dest)
        if route is None or not route.valid or route.expires_at < self.now:
            return None
        return route

    def _touch(self, dest: int, route: Route) -> None:
        route.expires_at = self.now + self.config.route_lifetime_s

    # ---------------------------------------------------- failure machinery

    def on_send_failed(self, packet: Packet, dst: Optional[int]) -> None:
        if dst is None:
            return
        self.link_failures += 1
        unreachable = {
            dest for dest, route in self.routes.items()
            if route.valid and route.next_hop == dst
        }
        for dest in unreachable:
            self.routes[dest].valid = False
        if packet is not None and packet.kind == PacketKind.DATA:
            if packet.origin == self.node_id:
                # We are the source: buffer the packet and rediscover.
                self._dispatch_data(packet)
            else:
                self.data_dropped += 1
                if self.ctx.observing:
                    self.obs_drop(packet, DropReason.NO_ROUTE,
                                  next_hop=dst, cause="link_broken")
                if unreachable:
                    self._send_rerr(unreachable)
        elif unreachable:
            self._send_rerr(unreachable)

    def _send_rerr(self, unreachable: set[int]) -> None:
        rerr = Packet(
            kind=PacketKind.RERR,
            origin=self.node_id,
            seq=self.seq.next(PacketKind.RERR),
            size_bytes=self.config.ctrl_size,
            created_at=self.now,
            payload=frozenset(unreachable),
        )
        self.rerrs_sent += 1
        self.mac.send(rerr)

    def _on_rerr(self, packet: Packet, rx: Reception) -> None:
        affected = set()
        for dest in packet.payload:
            route = self.routes.get(dest)
            if route is not None and route.valid and route.next_hop == rx.src:
                route.valid = False
                affected.add(dest)
        if affected:
            # Propagate only for routes that actually died here, so the RERR
            # walks back along the broken route's tree and then stops.
            self._send_rerr(affected)
