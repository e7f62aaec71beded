"""The per-run observability bundle instrumented code talks to.

:class:`Observability` ties the three pillars together for one simulation:
a :class:`~repro.obs.registry.MetricsRegistry` (labeled counters, gauges,
histograms), a :class:`~repro.obs.ledger.PacketLedger` (per-packet causal
chains), and the export surface in :mod:`repro.obs.timeline`.

Instrumentation sites across phy/mac/net call the ``on_*`` hooks.  A packet
hook appends one ledger row and nothing more; the metric families that are
pure functions of the ledger are folded from its rows whenever the registry
is read, so the two views can never disagree about what happened.  Every
hook is behind the cheap ``SimContext.observing`` flag at the call site::

    if self.ctx.observing:
        self.ctx.obs.on_drop(self.now, self.node_id, "mac",
                             DropReason.QUEUE_OVERFLOW, uid)

so a run without observability pays one attribute read per site.  The
ledger is the run's only per-event record: ``obs.ledger.chain(uid)`` is one
packet's journey.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from operator import attrgetter, itemgetter
from typing import Any, Optional

from repro.obs.ledger import DropReason, PacketLedger, PacketStage
from repro.obs.registry import MetricsRegistry

__all__ = ["Observability"]

_ORIGINATE = PacketStage.ORIGINATE
_ENQUEUE = PacketStage.ENQUEUE
_CONTEND = PacketStage.CONTEND
_TX = PacketStage.TX
_RX = PacketStage.RX
_SUPPRESS = PacketStage.SUPPRESS
_FORWARD = PacketStage.FORWARD
_DELIVER = PacketStage.DELIVER
_DROP = PacketStage.DROP
_FAULT = PacketStage.FAULT

# Ledger-row fields the fold reads column-wise.
_NODE = itemgetter(1)
_LAYER = itemgetter(2)
_STAGE = itemgetter(3)
_STAGE_VALUE = attrgetter("_value_")

#: Election-backoff histogram bounds: the paper's λ values put election
#: delays in the 100 µs – 100 ms band; resolve that band finely.
_BACKOFF_BUCKETS = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2, 3.2e-2,
    6.4e-2, 0.128, 0.256,
)


class Observability:
    """One run's metrics registry + packet ledger, plus the hook surface.

    Read metrics through :attr:`registry` or :meth:`snapshot`: both fold
    the ledger rows first, whereas the family attributes (``events``,
    ``drops``, ...) hold only what the last fold left in them.
    """

    def __init__(self, registry: MetricsRegistry | None = None,
                 ledger: PacketLedger | None = None):
        self._registry = registry if registry is not None else MetricsRegistry()
        self.ledger = ledger if ledger is not None else PacketLedger()
        self._append = self.ledger.rows.append
        #: Ledger rows already folded into the registry.
        self._folded = 0
        #: kind -> node ids it has touched (backs the fault_nodes gauge).
        self._fault_touched: dict[str, set[int]] = {}

        reg = self._registry
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
            "Peak bytes held by the channel's link budget (per-source "
            "sparse reach rows).")

    # ------------------------------------------------------------- lifecycle
    #
    # Each packet hook appends one ``(time, node, layer, stage, uid, reason,
    # detail)`` row and nothing else; the ledger-derived families are folded
    # from those rows when the registry is read (see :meth:`_fold`).

    def on_originate(self, time: float, node: int, uid: int) -> None:
        self._append((time, node, "net", _ORIGINATE, uid, None, None))

    def on_enqueue(self, time: float, node: int, uid: Optional[int],
                   depth: int) -> None:
        self._append((time, node, "mac", _ENQUEUE, uid, None,
                      {"depth": depth}))

    def on_contend(self, time: float, node: int, uid: Optional[int],
                   backoff_s: float, retries: int) -> None:
        self._append((time, node, "mac", _CONTEND, uid, None,
                      {"backoff_s": backoff_s, "retries": retries}))

    def on_tx(self, time: float, node: int, uid: Optional[int], kind: str,
              duration_s: float) -> None:
        self._append((time, node, "phy", _TX, uid, None,
                      {"kind": kind, "duration_s": duration_s}))

    def on_rx(self, time: float, node: int, uid: Optional[int],
              power_dbm: float) -> None:
        self._append((time, node, "phy", _RX, uid, None,
                      {"power_dbm": power_dbm}))

    def on_suppress(self, time: float, node: int, uid: int,
                    **detail: Any) -> None:
        self._append((time, node, "net", _SUPPRESS, uid, None,
                      detail or None))

    def on_forward(self, time: float, node: int, uid: int,
                   **detail: Any) -> None:
        self._append((time, node, "net", _FORWARD, uid, None,
                      detail or None))

    def on_deliver(self, time: float, node: int, uid: int, delay_s: float,
                   hops: int) -> None:
        self._append((time, node, "net", _DELIVER, uid, None,
                      {"delay_s": delay_s, "hops": hops}))

    def on_drop(self, time: float, node: int, layer: str, reason: DropReason,
                uid: Optional[int] = None, **detail: Any) -> None:
        self._append((time, node, layer, _DROP, uid, reason, detail or None))

    def on_fault(self, time: float, node: int, kind: str, action: str,
                 **detail: Any) -> None:
        """A fault transition fired at ``node`` — e.g. a duty-cycle outage
        turning a radio off (``kind="duty_cycle", action="off"``) or a
        crashed node recovering (``kind="node_crash", action="recover"``).
        Fault entries land in the same ledger as packet events, so the
        timeline export interleaves chaos with its consequences, and the
        invariant checker reconstructs radio off-windows from them."""
        self._append((time, node, "fault", _FAULT, None, None,
                      {"kind": kind, "action": action, **detail}))
        self.fault_events.labels(kind, action).inc()
        self._fault_touched.setdefault(kind, set()).add(node)
        self.fault_nodes.labels(kind).set(
            float(len(self._fault_touched[kind])))

    def on_election_win(self, time: float, node: int, uid: int,
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

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics registry, with every ledger row recorded so far
        folded into the ledger-derived families."""
        self._fold()
        return self._registry

    def _fold(self) -> None:
        """Fold the rows appended since the last fold into the
        ledger-derived families.

        Pure counts are tallied per child and added once (sums of 1.0 are
        exact, and tallies keep first-seen child order); airtime, the
        delivery histograms and the queue peaks go row by row in record
        order, so every float sum matches per-event updates.
        """
        rows = self.ledger.rows
        if self._folded == len(rows):
            return
        new = rows[self._folded:]
        self._folded = len(rows)
        # One C-level tally of (node, stage, layer) feeds both per-event
        # families; keys are the stage's string value, not the Enum member.
        per_node = TallyCounter(zip(map(_NODE, new),
                                    map(_STAGE_VALUE, map(_STAGE, new)),
                                    map(_LAYER, new)))
        events: TallyCounter = TallyCounter()
        node_events: TallyCounter = TallyCounter()
        for (node, stage, layer), n in per_node.items():
            events[stage, layer] += n
            node_events[node, stage] += n
        drops: TallyCounter = TallyCounter()
        tx_frames: TallyCounter = TallyCounter()
        airtime: dict = {}
        peaks: dict = {}
        for row in new:
            stage = row[3]
            if stage is _TX:
                kind = row[6]["kind"]
                tx_frames[(kind,)] += 1
                child = airtime.get(kind)
                if child is None:
                    child = airtime[kind] = self.airtime.labels(kind)
                child.inc(row[6]["duration_s"])
            elif stage is _DROP:
                drops[row[5]._value_, row[2]] += 1
            elif stage is _DELIVER:
                self.delivery_delay.observe(row[6]["delay_s"])
                self.delivery_hops.observe(row[6]["hops"])
            elif stage is _ENQUEUE:
                node, depth = row[1], row[6]["depth"]
                if depth > peaks.get(node, -1):
                    peaks[node] = depth
        for node, depth in peaks.items():
            self.queue_peak.labels(node).set_max(depth)
        for family, tally in (
                (self.events, events),
                (self.node_events, node_events),
                (self.drops, drops),
                (self.tx_frames, tx_frames)):
            for labels, n in tally.items():
                family.labels(*labels).inc(float(n))

    def snapshot(self) -> dict:
        """The registry snapshot (see :meth:`MetricsRegistry.snapshot`)."""
        return self.registry.snapshot()
