"""Shared machinery for network-layer protocols.

Every protocol in the reproduction (flooding variants, Routeless Routing,
AODV, Gradient Routing) extends :class:`NetworkProtocol`: wiring to the MAC,
a duplicate cache keyed on packet uid, per-kind sequence counters, an app
delivery port, and origination/delivery bookkeeping that the metrics layer
consumes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.mac.csma import CsmaMac
from repro.net.packet import Packet, PacketKind, SeqCounter
from repro.obs.ledger import DropReason
from repro.phy.radio import Reception
from repro.sim.components import Component, SimContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.stats.metrics import MetricsCollector

__all__ = ["NetworkProtocol", "DuplicateCache"]


class DuplicateCache:
    """Remembers every packet uid this node has seen."""

    def __init__(self) -> None:
        self._seen: set[int] = set()

    def seen(self, packet: Packet) -> bool:
        return packet.uid in self._seen

    def record(self, packet: Packet) -> bool:
        """Record the uid; returns True when it was new."""
        if packet.uid in self._seen:
            return False
        self._seen.add(packet.uid)
        return True

    def __len__(self) -> int:
        return len(self._seen)


class NetworkProtocol(Component):
    """Base class: one instance per node, wired onto that node's MAC."""

    def __init__(self, ctx: SimContext, node_id: int, mac: CsmaMac, name: str,
                 metrics: "MetricsCollector | None" = None):
        super().__init__(ctx, f"{name}[{node_id}]")
        self.node_id = node_id
        self.mac = mac
        self.metrics = metrics
        self.seq = SeqCounter()
        self.dup_cache = DuplicateCache()

        #: Delivers ``(packet, Reception)`` to the application layer.
        self.deliver = self.outport("deliver")

        mac.to_net.connect(self.on_mac_packet)
        mac.send_failed.connect(self.on_send_failed)

    # ------------------------------------------------------------ overrides

    def send_data(self, target: int, size_bytes: int) -> Packet:
        """Originate one data packet toward ``target``."""
        raise NotImplementedError

    def on_mac_packet(self, packet: Packet, rx: Reception) -> None:
        raise NotImplementedError

    def on_send_failed(self, packet: Packet, dst: Optional[int]) -> None:
        """MAC gave up on a unicast.  Broadcast-only protocols ignore this."""

    # -------------------------------------------------------------- helpers

    def make_data(self, target: int, size_bytes: int) -> Packet:
        packet = Packet(
            kind=PacketKind.DATA,
            origin=self.node_id,
            seq=self.seq.next(PacketKind.DATA),
            target=target,
            size_bytes=size_bytes,
            created_at=self.now,
        )
        if self.metrics is not None:
            self.metrics.on_originated(packet)
        if self.ctx.observing:
            self.ctx.obs.on_originate(self.now, self.node_id, packet.uid)
        return packet

    def deliver_up(self, packet: Packet, rx: Reception) -> None:
        """Hand a packet that reached its target to the application."""
        if self.metrics is not None:
            self.metrics.on_delivered(packet, self.now, self.node_id)
        if self.ctx.observing:
            self.ctx.obs.on_deliver(self.now, self.node_id, packet.uid,
                                    self.now - packet.created_at,
                                    packet.actual_hops + 1)
        self.deliver.emit(packet, rx)

    # The thin ledger shims below keep instrumented protocol code to one
    # guarded line per site; each records at this node's net layer.

    def obs_drop(self, packet: Packet, reason: DropReason, **detail) -> None:
        self.ctx.obs.on_drop(self.now, self.node_id, "net", reason,
                             packet.uid, **detail)

    def obs_suppress(self, packet: Packet, **detail) -> None:
        self.ctx.obs.on_suppress(self.now, self.node_id, packet.uid, **detail)

    def obs_forward(self, packet: Packet, **detail) -> None:
        self.ctx.obs.on_forward(self.now, self.node_id, packet.uid, **detail)
