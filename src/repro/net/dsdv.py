"""DSDV baseline (Perkins & Bhagwat [26]) — proactive distance-vector routing.

The paper's taxonomy: "these wireless routing protocols can be classified as
either proactive, such as DSDV, or reactive, such as AODV and DSR."  DSDV
completes the comparison set: every node periodically broadcasts its full
distance vector, stamped with per-destination sequence numbers so fresher
information always supersedes staler regardless of metric.

Modelled mechanics:

* **Periodic full dumps** — each node broadcasts ``{dest: (seq, hops)}``
  every update period (jittered to avoid phase-locking).  The dump's cost is
  charged to its size (8 bytes per entry), so the protocol's signature
  weakness — constant background control traffic that grows with network
  size — shows up in the MAC packet and airtime accounting.
* **Sequence-numbered Bellman-Ford** — a route is replaced when the
  advertisement carries a newer sequence number, or the same one with fewer
  hops.
* **Broken-link advertisement** — a MAC-level delivery failure marks routes
  through the dead next hop with an odd (infinite-metric) sequence number
  and triggers an immediate advertisement, per the paper's protocol.

Data forwarding is hop-by-hop unicast out of the routing table, like AODV.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mac.csma import CsmaMac
from repro.net.base import NetworkProtocol
from repro.net.packet import (
    DEFAULT_CTRL_SIZE,
    DEFAULT_DATA_SIZE,
    Packet,
    PacketKind,
)
from repro.obs.ledger import DropReason
from repro.phy.radio import Reception
from repro.sim.components import SimContext

__all__ = ["DsdvConfig", "DsdvRoute", "Dsdv"]

#: Advertisement bytes per table entry.
ENTRY_BYTES = 8
#: Hop metric representing an unreachable destination.
INFINITY = 9999


@dataclass
class DsdvRoute:
    next_hop: int
    hops: int
    seq: int

    @property
    def valid(self) -> bool:
        return self.hops < INFINITY


@dataclass(frozen=True)
class DsdvConfig:
    update_period_s: float = 3.0
    #: Uniform jitter applied to every periodic dump.
    update_jitter_s: float = 0.5
    data_size: int = DEFAULT_DATA_SIZE
    base_ctrl_size: int = DEFAULT_CTRL_SIZE
    #: Packets buffered per destination while no route exists yet.
    max_pending_data: int = 64
    #: Drop buffered packets if no route appears within this time.
    pending_timeout_s: float = 10.0


class Dsdv(NetworkProtocol):
    """One node's DSDV entity."""

    PROTOCOL_NAME = "dsdv"

    def __init__(self, ctx: SimContext, node_id: int, mac: CsmaMac,
                 config: DsdvConfig | None = None, metrics=None):
        config = config if config is not None else DsdvConfig()
        super().__init__(ctx, node_id, mac, self.PROTOCOL_NAME, metrics)
        self.config = config
        self.routes: dict[int, DsdvRoute] = {}
        self._own_seq = 0  # always even while we are alive
        self._pending_data: dict[int, list[tuple[float, Packet]]] = {}
        self._rng = self.rng("jitter")

        self.updates_sent = 0
        self.data_forwarded = 0
        self.data_dropped = 0
        self.link_failures = 0

        self._schedule_update(first=True)

    # ----------------------------------------------------------- scheduling

    def _schedule_update(self, first: bool = False) -> None:
        period = self.config.update_period_s
        jitter = float(self._rng.uniform(0.0, self.config.update_jitter_s))
        delay = jitter if first else period + jitter
        self.schedule(delay, self._periodic_update)

    def _periodic_update(self) -> None:
        self._broadcast_update()
        self._expire_pending()
        self._schedule_update()

    # -------------------------------------------------------------- updates

    def _vector(self) -> dict[int, tuple[int, int]]:
        """Our advertised distance vector, self entry included."""
        self._own_seq += 2
        vector = {self.node_id: (self._own_seq, 0)}
        for dest, route in self.routes.items():
            vector[dest] = (route.seq, route.hops)
        return vector

    def _broadcast_update(self) -> None:
        vector = self._vector()
        packet = Packet(
            kind=PacketKind.ANNOUNCE,  # reused as "routing advertisement"
            origin=self.node_id,
            seq=self.seq.next("dsdv-update"),
            size_bytes=self.config.base_ctrl_size + ENTRY_BYTES * len(vector),
            created_at=self.now,
            payload=vector,
        )
        self.updates_sent += 1
        self.mac.send(packet)

    def _on_update(self, packet: Packet, rx: Reception) -> None:
        changed = False
        for dest, (seq, hops) in packet.payload.items():
            if dest == self.node_id:
                continue
            metric = hops + 1 if hops < INFINITY else INFINITY
            current = self.routes.get(dest)
            newer = current is None or seq > current.seq or (
                seq == current.seq and metric < current.hops)
            if newer:
                self.routes[dest] = DsdvRoute(next_hop=rx.src, hops=metric, seq=seq)
                changed = True
        if changed:
            self._flush_pending()

    # ------------------------------------------------------------------ app

    def send_data(self, target: int, size_bytes: int | None = None) -> Packet:
        packet = self.make_data(
            target, self.config.data_size if size_bytes is None else size_bytes
        )
        self._dispatch_data(packet)
        return packet

    def _dispatch_data(self, packet: Packet) -> None:
        route = self.routes.get(packet.target)
        if route is not None and route.valid:
            self.mac.send(packet, dst=route.next_hop)
            return
        queue = self._pending_data.setdefault(packet.target, [])
        if len(queue) >= self.config.max_pending_data:
            self.data_dropped += 1
            if self.ctx.observing:
                self.obs_drop(packet, DropReason.QUEUE_OVERFLOW,
                              where="pending_route")
        else:
            queue.append((self.now, packet))

    def _flush_pending(self) -> None:
        for target in list(self._pending_data):
            route = self.routes.get(target)
            if route is None or not route.valid:
                continue
            for _, packet in self._pending_data.pop(target):
                self.mac.send(packet, dst=route.next_hop)

    def _expire_pending(self) -> None:
        deadline = self.now - self.config.pending_timeout_s
        for target in list(self._pending_data):
            kept = [(t, p) for t, p in self._pending_data[target] if t > deadline]
            self.data_dropped += len(self._pending_data[target]) - len(kept)
            if self.ctx.observing:
                for t, packet in self._pending_data[target]:
                    if t <= deadline:
                        self.obs_drop(packet, DropReason.NO_ROUTE,
                                      cause="pending_expired")
            if kept:
                self._pending_data[target] = kept
            else:
                del self._pending_data[target]

    # -------------------------------------------------------------- receive

    def on_mac_packet(self, packet: Packet, rx: Reception) -> None:
        if packet.origin == self.node_id:
            return
        if packet.kind == PacketKind.ANNOUNCE:
            self._on_update(packet, rx)
        elif packet.kind == PacketKind.DATA:
            self._on_data(packet, rx)

    def _on_data(self, packet: Packet, rx: Reception) -> None:
        if not self.dup_cache.record(packet):
            if self.ctx.observing:
                self.obs_drop(packet, DropReason.DUPLICATE)
            return
        if packet.target == self.node_id:
            self.deliver_up(packet, rx)
            return
        route = self.routes.get(packet.target)
        if route is None or not route.valid:
            self.data_dropped += 1
            if self.ctx.observing:
                self.obs_drop(packet, DropReason.NO_ROUTE,
                              target=packet.target)
            return
        self.data_forwarded += 1
        if self.ctx.observing:
            self.obs_forward(packet, next_hop=route.next_hop)
        self.mac.send(packet.forwarded(self.node_id), dst=route.next_hop)

    # ---------------------------------------------------- failure machinery

    def on_send_failed(self, packet: Packet, dst: Optional[int]) -> None:
        if dst is None:
            return
        self.link_failures += 1
        broken = False
        for dest, route in self.routes.items():
            if route.valid and route.next_hop == dst:
                # Infinite metric with an odd sequence number one above the
                # last known — DSDV's broken-link advertisement rule.
                route.hops = INFINITY
                route.seq += 1
                broken = True
        if packet is not None and packet.kind == PacketKind.DATA:
            if packet.origin == self.node_id:
                self._dispatch_data(packet)  # re-buffer until routes heal
            else:
                self.data_dropped += 1
                if self.ctx.observing:
                    self.obs_drop(packet, DropReason.NO_ROUTE,
                                  next_hop=dst, cause="link_broken")
        if broken:
            self._broadcast_update()
