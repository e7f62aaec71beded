"""Shared machinery for network-layer protocols.

Every protocol in the reproduction (flooding variants, Routeless Routing,
AODV, Gradient Routing) extends :class:`NetworkProtocol`: wiring to the MAC,
a duplicate cache keyed on packet uid, per-kind sequence counters, an app
delivery port, and origination/delivery bookkeeping that the metrics layer
consumes.

The on-demand protocols (AODV, DSR, Gradient and Routeless Routing) hold
data for an unknown target in one :class:`RouteDiscovery`, which applies one
rule to every target:

* the buffer holds at most ``max_pending`` packets; one more is a
  ``QUEUE_OVERFLOW`` drop (``where="pending_discovery"``);
* at a request timeout, a route known by then releases the buffer; with no
  route, a request past the retry limit drops every buffered packet as
  ``NO_ROUTE``, and otherwise the request goes out again;
* a successful discovery cancels the timeout and releases the buffer; AODV
  also counts a route learned in passing as success (RFC 3561).

Released packets leave in the order they arrived.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.mac.csma import CsmaMac
from repro.net.packet import Packet, PacketKind, SeqCounter
from repro.obs.ledger import DropReason
from repro.phy.radio import Reception
from repro.sim.components import Component, SimContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.stats.metrics import MetricsCollector

__all__ = ["NetworkProtocol", "DuplicateCache", "RouteDiscovery"]


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


class _Pending:
    """One target's discovery: its buffered data, requests that timed out
    so far, and the handle of the request's timeout."""

    __slots__ = ("target", "buffer", "attempts", "handle")

    def __init__(self, target: int):
        self.target = target
        self.buffer: list[Packet] = []
        self.attempts = 0
        self.handle = None


class RouteDiscovery:
    """A protocol instance's discoveries in flight, one per target.

    The protocol supplies three hooks: ``send_request(target)`` puts one
    request on the air, ``route_known(target)`` is truthy once data for the
    target can leave, and ``release(packet)`` sends one buffered packet.
    Drops count in the owner's ``data_dropped``.
    """

    __slots__ = ("_owner", "_send_request", "_route_known", "_release",
                 "_timeout_s", "_max_retries", "_max_pending", "_pending")

    def __init__(self, owner: NetworkProtocol, *,
                 send_request: Callable[[int], None],
                 route_known: Callable[[int], object],
                 release: Callable[[Packet], None],
                 timeout_s: float, max_retries: int, max_pending: int):
        self._owner = owner
        self._send_request = send_request
        self._route_known = route_known
        self._release = release
        self._timeout_s = timeout_s
        self._max_retries = max_retries
        self._max_pending = max_pending
        self._pending: dict[int, _Pending] = {}

    def __contains__(self, target: int) -> bool:
        """True while a discovery toward ``target`` is in flight."""
        return target in self._pending

    def hold(self, packet: Packet) -> None:
        """Buffer ``packet`` until its target is found; starts a discovery
        unless one is already in flight."""
        pending = self._pending.get(packet.target)
        started = pending is None
        if started:
            pending = self._pending[packet.target] = _Pending(packet.target)
        if len(pending.buffer) >= self._max_pending:
            owner = self._owner
            owner.data_dropped += 1
            if owner.ctx.observing:
                owner.obs_drop(packet, DropReason.QUEUE_OVERFLOW,
                               where="pending_discovery")
        else:
            pending.buffer.append(packet)
        if started:
            self._request(pending)

    def succeeded(self, target: int) -> None:
        """A route toward ``target`` is known: cancel the timeout and
        release the buffer."""
        pending = self._pending.pop(target, None)
        if pending is None:
            return
        pending.handle.cancel()
        for packet in pending.buffer:
            self._release(packet)

    def _request(self, pending: _Pending) -> None:
        # The request is queued before its timeout is scheduled, and a fired
        # timeout never cancels its own handle: both fix event sequence
        # numbers, which the golden runs pin.
        self._send_request(pending.target)
        pending.handle = self._owner.schedule(self._timeout_s, self._timeout,
                                              pending)

    def _timeout(self, pending: _Pending) -> None:
        target = pending.target
        if self._route_known(target):
            del self._pending[target]
            for packet in pending.buffer:
                self._release(packet)
            return
        pending.attempts += 1
        if pending.attempts <= self._max_retries:
            self._request(pending)
            return
        del self._pending[target]
        owner = self._owner
        owner.data_dropped += len(pending.buffer)
        if owner.ctx.observing:
            for packet in pending.buffer:
                owner.obs_drop(packet, DropReason.NO_ROUTE, target=target)
