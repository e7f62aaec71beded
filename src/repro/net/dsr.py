"""DSR baseline (Johnson & Maltz [27]) — on-demand *source* routing.

The paper groups AODV and DSR together as the reactive explicit-route
protocols that Routeless Routing is an alternative to.  DSR's distinguishing
features, all modelled:

* **Route record discovery** — the flooded route request accumulates the
  node list it traversed; the destination reverses the record into a
  complete source route and unicasts the reply back along it.
* **Source routes in data packets** — every data packet carries its full
  route (charged to its header size: 4 bytes per hop), and intermediate
  nodes forward by position in that route, keeping no per-flow state.
* **Route caching** — the source keeps the discovered route until a hop on
  it is reported broken.
* **Route error** — a relay that fails to reach the next hop unicasts a
  route error naming the broken link back toward the source along the
  prefix of the route it was given; every node on the way (and the source)
  drops cached routes using that link.

Simplifications mirroring the AODV baseline: no promiscuous route shortening
and no replies from intermediate caches — the paper's own comparison treats
discovery quality as the reactive protocols' weak point, so the baseline
stays classic.
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

__all__ = ["DsrConfig", "Dsr"]

#: Header bytes charged per hop carried in a source route.
ROUTE_ENTRY_BYTES = 4


@dataclass(frozen=True)
class DsrConfig:
    rreq_timeout_s: float = 1.0
    max_rreq_retries: int = 3
    rreq_jitter_s: float = 0.01
    data_size: int = DEFAULT_DATA_SIZE
    ctrl_size: int = DEFAULT_CTRL_SIZE
    max_hops: int = 32
    max_pending_data: int = 64


class Dsr(NetworkProtocol):
    """One node's DSR entity.

    Packet conventions: ``payload`` carries the source route as a tuple of
    node ids ``(source, ..., destination)``; for route errors it carries the
    broken link ``(from_node, to_node)`` plus the return route.
    """

    PROTOCOL_NAME = "dsr"

    def __init__(self, ctx: SimContext, node_id: int, mac: CsmaMac,
                 config: DsrConfig | None = None, metrics=None):
        config = config if config is not None else DsrConfig()
        super().__init__(ctx, node_id, mac, self.PROTOCOL_NAME, metrics)
        self.config = config
        #: destination -> full source route (tuple of node ids, ends at dest)
        self.route_cache: dict[int, tuple[int, ...]] = {}
        self.discovery = RouteDiscovery(
            self, send_request=self._send_rreq,
            route_known=self.route_cache.get, release=self._dispatch_data,
            timeout_s=config.rreq_timeout_s,
            max_retries=config.max_rreq_retries,
            max_pending=config.max_pending_data)
        self._rng = self.rng("jitter")

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
        route = self.route_cache.get(packet.target)
        if route is not None:
            self._send_along(packet, route)
        else:
            self.discovery.hold(packet)

    def _send_along(self, packet: Packet, route: tuple[int, ...]) -> None:
        """Stamp the source route and unicast to its first hop."""
        stamped = packet.with_fields(
            payload=route,
            size_bytes=packet.size_bytes + ROUTE_ENTRY_BYTES * len(route),
        )
        next_hop = route[1] if len(route) > 1 else packet.target
        self.mac.send(stamped, dst=next_hop)

    # ------------------------------------------------------------ discovery

    def _send_rreq(self, target: int) -> None:
        packet = Packet(
            kind=PacketKind.RREQ,
            origin=self.node_id,
            seq=self.seq.next(PacketKind.RREQ),
            target=target,
            size_bytes=self.config.ctrl_size,
            created_at=self.now,
            payload=(self.node_id,),  # the route record starts with us
        )
        self.dup_cache.record(packet)
        self.rreqs_sent += 1
        self.mac.send(packet)

    # -------------------------------------------------------------- receive

    def on_mac_packet(self, packet: Packet, rx: Reception) -> None:
        if packet.origin == self.node_id and packet.kind == PacketKind.RREQ:
            return  # our own flood echoing back
        if packet.kind == PacketKind.RREQ:
            self._on_rreq(packet)
        elif packet.kind == PacketKind.RREP:
            self._on_rrep(packet)
        elif packet.kind == PacketKind.DATA:
            self._on_data(packet, rx)
        elif packet.kind == PacketKind.RERR:
            self._on_rerr(packet)

    def _on_rreq(self, packet: Packet) -> None:
        if not self.dup_cache.record(packet):
            if self.ctx.observing:
                self.obs_drop(packet, DropReason.DUPLICATE)
            return
        record = packet.payload
        if self.node_id in record:
            return  # loop; cannot happen with dup suppression, but be safe
        record = record + (self.node_id,)
        if packet.target == self.node_id:
            route = record  # source ... us — a complete forward route
            reply = Packet(
                kind=PacketKind.RREP,
                origin=self.node_id,
                seq=self.seq.next(PacketKind.RREP),
                target=packet.origin,
                size_bytes=self.config.ctrl_size + ROUTE_ENTRY_BYTES * len(route),
                created_at=self.now,
                ref_seq=packet.seq,
                payload=route,
            )
            self.rreps_sent += 1
            # Walk the reply back along the reversed record.
            self.mac.send(reply, dst=route[-2])
            return
        if len(record) >= self.config.max_hops:
            if self.ctx.observing:
                self.obs_drop(packet, DropReason.TTL_EXPIRED,
                              hops=len(record))
            return
        forwarded = packet.forwarded(self.node_id).with_fields(payload=record)
        jitter = float(self._rng.uniform(0.0, self.config.rreq_jitter_s))
        self.schedule(jitter, self.mac.send, forwarded)

    def _on_rrep(self, packet: Packet) -> None:
        route = packet.payload  # (source, ..., destination)
        if packet.target == self.node_id:
            self.route_cache[route[-1]] = route
            self.discovery.succeeded(route[-1])
            return
        # Forward toward the source: previous entry in the record.
        try:
            index = route.index(self.node_id)
        except ValueError:
            return
        if index == 0:
            return
        self.mac.send(packet.forwarded(self.node_id), dst=route[index - 1])

    def _on_data(self, packet: Packet, rx: Reception) -> None:
        if not self.dup_cache.record(packet):
            if self.ctx.observing:
                self.obs_drop(packet, DropReason.DUPLICATE)
            return  # MAC-retransmission duplicate
        if packet.target == self.node_id:
            self.deliver_up(packet, rx)
            return
        route = packet.payload
        try:
            index = route.index(self.node_id)
        except (ValueError, AttributeError):
            self.data_dropped += 1
            if self.ctx.observing:
                self.obs_drop(packet, DropReason.NO_ROUTE,
                              cause="not_on_source_route")
            return
        if index + 1 >= len(route):
            self.data_dropped += 1
            if self.ctx.observing:
                self.obs_drop(packet, DropReason.NO_ROUTE,
                              cause="route_exhausted")
            return
        self.data_forwarded += 1
        if self.ctx.observing:
            self.obs_forward(packet, next_hop=route[index + 1])
        self.mac.send(packet.forwarded(self.node_id), dst=route[index + 1])

    # ---------------------------------------------------- failure machinery

    def on_send_failed(self, packet: Packet, dst: Optional[int]) -> None:
        if dst is None or packet is None:
            return
        self.link_failures += 1
        broken = (self.node_id, dst)
        self._purge_routes(broken)

        if packet.kind == PacketKind.DATA:
            route = packet.payload if isinstance(packet.payload, tuple) else ()
            if packet.origin == self.node_id:
                # We are the source: strip the dead route and rediscover.
                bare = packet.with_fields(
                    payload=None,
                    size_bytes=max(packet.size_bytes - ROUTE_ENTRY_BYTES * len(route),
                                   self.config.data_size),
                )
                self._dispatch_data(bare)
            else:
                self.data_dropped += 1
                if self.ctx.observing:
                    self.obs_drop(packet, DropReason.NO_ROUTE,
                                  cause="link_broken")
                self._send_rerr(broken, route, packet.origin)
        # Lost RREPs / RERRs: the requester's timeout machinery recovers.

    def _send_rerr(self, broken: tuple[int, int], route: tuple[int, ...],
                   source: int) -> None:
        """Unicast a route error back toward the data packet's source."""
        try:
            index = route.index(self.node_id)
        except ValueError:
            return
        if index == 0:
            return
        rerr = Packet(
            kind=PacketKind.RERR,
            origin=self.node_id,
            seq=self.seq.next(PacketKind.RERR),
            target=source,
            size_bytes=self.config.ctrl_size,
            created_at=self.now,
            payload=(broken, route),
        )
        self.rerrs_sent += 1
        self.mac.send(rerr, dst=route[index - 1])

    def _on_rerr(self, packet: Packet) -> None:
        broken, route = packet.payload
        self._purge_routes(broken)
        if packet.target == self.node_id:
            return
        try:
            index = route.index(self.node_id)
        except ValueError:
            return
        if index > 0:
            self.mac.send(packet.forwarded(self.node_id), dst=route[index - 1])

    def _purge_routes(self, broken: tuple[int, int]) -> None:
        u, v = broken
        dead = [dest for dest, route in self.route_cache.items()
                if any(route[i] == u and route[i + 1] == v
                       for i in range(len(route) - 1))]
        for dest in dead:
            del self.route_cache[dest]
