"""The per-run observability bundle instrumented code talks to.

:class:`Observability` ties the three pillars together for one simulation:
a :class:`~repro.obs.registry.MetricsRegistry` (labeled counters, gauges,
histograms), a :class:`~repro.obs.ledger.PacketLedger` (per-packet causal
chains), and the export surface in :mod:`repro.obs.timeline`.

Instrumentation sites across phy/mac/net call the ``on_*`` hooks, which
update the ledger and the relevant metric families together so the two
views can never disagree about what happened.  Every hook is behind the
cheap ``SimContext.observing`` flag at the call site::

    if self.ctx.observing:
        self.ctx.obs.on_drop(self.now, self.node_id, "mac",
                             DropReason.QUEUE_OVERFLOW, uid)

so a run without observability pays one attribute read per site — the same
zero-cost discipline as :attr:`SimContext.tracing`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.ledger import DropReason, PacketLedger, PacketStage
from repro.obs.registry import MetricsRegistry

__all__ = ["Observability"]

#: Election-backoff histogram bounds: the paper's λ values put election
#: delays in the 100 µs – 100 ms band; resolve that band finely.
_BACKOFF_BUCKETS = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2, 3.2e-2,
    6.4e-2, 0.128, 0.256,
)


class Observability:
    """One run's metrics registry + packet ledger, plus the hook surface."""

    def __init__(self, registry: MetricsRegistry | None = None,
                 ledger: PacketLedger | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.ledger = ledger if ledger is not None else PacketLedger()
        #: Copied into ``SimContext.observing`` when the context is built;
        #: set it to False before then to run without collection.
        self.enabled = True
        #: kind -> node ids it has touched (backs the fault_nodes gauge).
        self._fault_touched: dict[str, set[int]] = {}

        reg = self.registry
        self.events = reg.counter(
            "repro_packet_events_total",
            "Packet lifecycle events by stage and witnessing layer.",
            ("stage", "layer"))
        self.drops = reg.counter(
            "repro_drops_total",
            "Dropped packet copies by typed reason and layer.",
            ("reason", "layer"))
        self.node_events = reg.counter(
            "repro_node_events_total",
            "Per-node lifecycle event counts by stage.",
            ("node", "stage"))
        self.tx_frames = reg.counter(
            "repro_tx_frames_total",
            "Frames put on the air, by frame kind (the per-protocol "
            "transmission breakdown).",
            ("kind",))
        self.airtime = reg.counter(
            "repro_airtime_seconds_total",
            "Cumulative airtime by frame kind.",
            ("kind",))
        self.delivery_delay = reg.histogram(
            "repro_delivery_delay_seconds",
            "End-to-end delay of delivered packets.")
        self.delivery_hops = reg.histogram(
            "repro_delivery_hops",
            "Hop count of delivered packets.",
            buckets=(1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32))
        self.election_backoff = reg.histogram(
            "repro_election_win_backoff_seconds",
            "Backoff delay of the relay that won each local election.",
            ("protocol",), buckets=_BACKOFF_BUCKETS)
        self.queue_peak = reg.gauge(
            "repro_tx_queue_peak_depth",
            "High watermark of each node's MAC transmit queue.",
            ("node",))
        self.fault_events = reg.counter(
            "repro_fault_events_total",
            "Injected fault transitions by fault kind and action "
            "(e.g. duty_cycle/off, node_crash/recover).",
            ("kind", "action"))
        self.fault_nodes = reg.gauge(
            "repro_fault_nodes_affected",
            "Number of distinct nodes each fault kind has touched.",
            ("kind",))
        self.link_budget_bytes = reg.gauge(
            "repro_channel_link_budget_bytes",
            "Peak bytes held by the channel's link-budget representation "
            "(dense matrices or sparse per-source arrays).")

    # ------------------------------------------------------------- lifecycle

    def _event(self, time: float, node: int, layer: str, stage: PacketStage,
               uid: Optional[tuple], reason: Optional[DropReason] = None,
               **detail: Any) -> None:
        self.ledger.record(time, node, layer, stage, uid, reason, **detail)
        self.events.labels(stage.value, layer).inc()
        self.node_events.labels(node, stage.value).inc()

    def on_originate(self, time: float, node: int, uid: tuple) -> None:
        self._event(time, node, "net", PacketStage.ORIGINATE, uid)

    def on_enqueue(self, time: float, node: int, uid: Optional[tuple],
                   depth: int) -> None:
        self._event(time, node, "mac", PacketStage.ENQUEUE, uid, depth=depth)
        self.queue_peak.labels(node).set_max(depth)

    def on_contend(self, time: float, node: int, uid: Optional[tuple],
                   backoff_s: float, retries: int) -> None:
        self._event(time, node, "mac", PacketStage.CONTEND, uid,
                    backoff_s=backoff_s, retries=retries)

    def on_tx(self, time: float, node: int, uid: Optional[tuple], kind: str,
              duration_s: float) -> None:
        self._event(time, node, "phy", PacketStage.TX, uid, kind=kind,
                    duration_s=duration_s)
        self.tx_frames.labels(kind).inc()
        self.airtime.labels(kind).inc(duration_s)

    def on_rx(self, time: float, node: int, uid: Optional[tuple],
              power_dbm: float) -> None:
        self._event(time, node, "phy", PacketStage.RX, uid, power_dbm=power_dbm)

    def on_suppress(self, time: float, node: int, uid: tuple,
                    **detail: Any) -> None:
        self._event(time, node, "net", PacketStage.SUPPRESS, uid, **detail)

    def on_forward(self, time: float, node: int, uid: tuple,
                   **detail: Any) -> None:
        self._event(time, node, "net", PacketStage.FORWARD, uid, **detail)

    def on_deliver(self, time: float, node: int, uid: tuple, delay_s: float,
                   hops: int) -> None:
        self._event(time, node, "net", PacketStage.DELIVER, uid,
                    delay_s=delay_s, hops=hops)
        self.delivery_delay.observe(delay_s)
        self.delivery_hops.observe(hops)

    def on_drop(self, time: float, node: int, layer: str, reason: DropReason,
                uid: Optional[tuple] = None, **detail: Any) -> None:
        self._event(time, node, layer, PacketStage.DROP, uid, reason, **detail)
        self.drops.labels(reason.value, layer).inc()

    def on_fault(self, time: float, node: int, kind: str, action: str,
                 **detail: Any) -> None:
        """A fault transition fired at ``node`` — e.g. a duty-cycle outage
        turning a radio off (``kind="duty_cycle", action="off"``) or a
        crashed node recovering (``kind="node_crash", action="recover"``).
        Fault entries land in the same ledger as packet events, so the
        timeline export interleaves chaos with its consequences, and the
        invariant checker reconstructs radio off-windows from them."""
        self._event(time, node, "fault", PacketStage.FAULT, None,
                    kind=kind, action=action, **detail)
        self.fault_events.labels(kind, action).inc()
        self._fault_touched.setdefault(kind, set()).add(node)
        self.fault_nodes.labels(kind).set(
            float(len(self._fault_touched[kind])))

    def on_election_win(self, time: float, node: int, uid: tuple,
                        protocol: str, backoff_s: float) -> None:
        """The relay that fired first for ``uid``; feeds the election-win
        backoff histogram the ``repro obs summary`` report renders."""
        self.election_backoff.labels(protocol).observe(backoff_s)

    def on_link_budget(self, bytes_: int) -> None:
        """The channel finished a link-budget rebuild holding ``bytes_`` of
        representation state; the gauge keeps the peak across rebuilds
        (mobility ticks, fault transitions)."""
        self.link_budget_bytes.set_max(float(bytes_))

    # ------------------------------------------------------------- plumbing

    def snapshot(self) -> dict:
        """The registry snapshot (see :meth:`MetricsRegistry.snapshot`)."""
        return self.registry.snapshot()
