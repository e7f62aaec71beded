"""Network-wide metrics — the three (plus one) quantities the paper reports.

* **Delivery ratio** — "dividing the number of packets received by all the
  destinations by the number of packets sent by all the sources."  Duplicate
  deliveries of the same packet count once.
* **End-to-end delay** — "average time expired from the departure of a packet
  from the source to its arrival at the destination", averaged over delivered
  packets.
* **Average hops** — "counts nodes traversed until the packet reaches its
  destination": a direct source→destination delivery is one hop.
* **MAC packet count** — every frame put on the air, read off the channel.

The collector also retains each delivered packet's relay path, which feeds
the Figure 2 congestion visualization and the per-flow diagnostics in the
examples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.phy.channel import Channel

__all__ = ["Delivery", "MetricsCollector", "MetricsSummary"]


@dataclass(frozen=True)
class Delivery:
    uid: int
    origin: int
    target: int
    sent_at: float
    received_at: float
    hops: int
    path: tuple[int, ...]

    @property
    def delay(self) -> float:
        return self.received_at - self.sent_at


@dataclass(frozen=True)
class MetricsSummary:
    generated: int
    delivered: int
    delivery_ratio: float
    avg_delay_s: float
    avg_hops: float
    mac_packets: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"generated={self.generated} delivered={self.delivered} "
            f"ratio={self.delivery_ratio:.3f} delay={self.avg_delay_s:.4f}s "
            f"hops={self.avg_hops:.2f} mac_packets={self.mac_packets}"
        )


class MetricsCollector:
    """Aggregates originations and (first) deliveries across the network."""

    def __init__(self) -> None:
        self._originated: dict[int, "Packet"] = {}
        self.deliveries: list[Delivery] = []
        self._delivered_uids: set[int] = set()
        self.duplicate_deliveries = 0
        self.relay_usage: Counter[int] = Counter()

    # ------------------------------------------------------ protocol hooks

    def on_originated(self, packet: "Packet") -> None:
        self._originated[packet.uid] = packet

    def on_delivered(self, packet: "Packet", now: float, node_id: int) -> None:
        if packet.uid in self._delivered_uids:
            self.duplicate_deliveries += 1
            return
        self._delivered_uids.add(packet.uid)
        origin_packet = self._originated.get(packet.uid)
        sent_at = origin_packet.created_at if origin_packet is not None else packet.created_at
        delivery = Delivery(
            uid=packet.uid,
            origin=packet.origin,
            target=node_id,
            sent_at=sent_at,
            received_at=now,
            hops=packet.actual_hops + 1,
            path=packet.path,
        )
        self.deliveries.append(delivery)
        for relay in packet.path:
            self.relay_usage[relay] += 1

    # -------------------------------------------------------------- queries

    @property
    def generated(self) -> int:
        return len(self._originated)

    @property
    def delivered(self) -> int:
        return len(self.deliveries)

    def delivery_ratio(self) -> float:
        return self.delivered / self.generated if self.generated else 0.0

    def avg_delay_s(self) -> float:
        if not self.deliveries:
            return 0.0
        return sum(d.delay for d in self.deliveries) / len(self.deliveries)

    def avg_hops(self) -> float:
        if not self.deliveries:
            return 0.0
        return sum(d.hops for d in self.deliveries) / len(self.deliveries)

    def summary(self, channel: "Channel | None" = None) -> MetricsSummary:
        return MetricsSummary(
            generated=self.generated,
            delivered=self.delivered,
            delivery_ratio=self.delivery_ratio(),
            avg_delay_s=self.avg_delay_s(),
            avg_hops=self.avg_hops(),
            mac_packets=channel.tx_count if channel is not None else 0,
        )

    def paths_between(self, origin: int, target: int) -> list[tuple[int, ...]]:
        """Relay paths of every delivered packet of one flow (Figure 2)."""
        return [
            d.path for d in self.deliveries
            if d.origin == origin and d.target == target
        ]
