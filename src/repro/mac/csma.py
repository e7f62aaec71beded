"""CSMA/CA medium access.

A deliberately classic pre-802.11e CSMA/CA: sense before transmitting, defer
while the medium is busy, and precede every transmission with
``DIFS + U(0,1) · CW`` of random backoff (the collision-avoidance backoff the
paper contrasts with its *prioritized* network-layer backoff).  Service
modes:

* **Broadcast** (``dst=None``) — one transmission, no acknowledgement.  All
  of the paper's election-based protocols live entirely on broadcast.
* **Unicast** — transmission, then a MAC-level ACK within a timeout;
  retransmit with a doubled contention window up to ``retry_limit``, then
  report the failure upward.  AODV, DSR and DSDV ride on this mode and use
  the failure report as their link-breakage detector.
* **RTS/CTS** (optional) — unicasts whose payload meets ``rts_threshold``
  reserve the medium first: RTS → CTS → data → ACK, with both control
  frames carrying a network-allocation vector (NAV) that silences third
  parties — including *hidden* ones that can hear the receiver but not the
  sender — for the duration of the exchange.

The queue feeding the MAC is FIFO or priority-ordered
(``MacConfig.priority_queue``; see :mod:`repro.mac.queue`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.mac.frame import (
    MAC_ACK_SIZE,
    MAC_CTS_SIZE,
    MAC_HEADER_SIZE,
    MAC_RTS_SIZE,
    Frame,
)
from repro.mac.queue import TxJob, TxQueue
from repro.obs.ledger import DropReason
from repro.sim.components import Component, SimContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.phy.radio import Reception, Transceiver

__all__ = ["MacConfig", "CsmaMac"]


@dataclass(frozen=True)
class MacConfig:
    """Timing follows classic 2 Mb/s 802.11 DSSS (the era's standard radio):
    20 µs slots, 50 µs DIFS, 10 µs SIFS, CW starting at 32 slots.  The short
    MAC settle time matters beyond realism — election suppression can only
    happen after the winner's frame hits the air, so MAC access latency
    bounds how well *any* backoff prioritization can discriminate."""

    bitrate_bps: float = 2e6
    preamble_s: float = 192e-6
    slot_s: float = 20e-6
    difs_s: float = 50e-6
    sifs_s: float = 10e-6
    cw_min_slots: int = 32
    cw_max_slots: int = 1024
    retry_limit: int = 5
    ack_timeout_s: float = 1.5e-3
    queue_capacity: int = 64
    priority_queue: bool = False
    #: Reserve the medium with RTS/CTS for unicast payloads of at least this
    #: many bytes.  ``None`` disables virtual carrier sensing entirely.
    rts_threshold_bytes: int | None = None
    cts_timeout_s: float = 1.0e-3

    def airtime_s(self, size_bytes: int) -> float:
        return self.preamble_s + size_bytes * 8.0 / self.bitrate_bps

    def cw_slots(self, retries: int) -> int:
        return min(self.cw_min_slots << retries, self.cw_max_slots)


class CsmaMac(Component):
    """One node's MAC entity, wired to its :class:`Transceiver`."""

    def __init__(self, ctx: SimContext, node_id: int, radio: "Transceiver",
                 config: MacConfig | None = None):
        super().__init__(ctx, f"mac[{node_id}]")
        self.node_id = node_id
        self.radio = radio
        self.config = config if config is not None else MacConfig()

        self.queue = TxQueue(self.config.queue_capacity,
                             prioritized=self.config.priority_queue)

        #: Local-oscillator rate factor for node-local timers (contention
        #: backoffs): 1.02 = a 2 % slow clock.  Driven by the clock-skew
        #: fault (see :mod:`repro.faults`); the default 1.0 is bit-exact
        #: (IEEE-754 multiplication by 1.0 is the identity), so unfaulted
        #: runs are unchanged to the last bit.
        self.time_scale = 1.0

        #: Delivers ``(packet, Reception)`` for every network packet addressed
        #: to this node or broadcast; unicasts for other nodes are not passed up.
        self.to_net = self.outport("to_net")
        #: Delivers ``(packet, dst)`` when a unicast exhausts its retries.
        self.send_failed = self.outport("send_failed")
        #: Delivers ``(packet, dst)`` when a frame has been put on the air
        #: (broadcast) or acknowledged (unicast).  Optional to connect.
        self.sent = self.outport("sent")

        radio.to_mac.connect(self._on_frame)
        radio.carrier.connect(self._on_carrier)
        radio.tx_done.connect(self._on_tx_done)

        self._rng = self.rng("backoff")
        self._seq = 0
        self._current: TxJob | None = None
        self._current_seq: int | None = None
        self._backoff_handle = None
        self._ack_handle = None
        self._cts_handle = None
        self._waiting_for_idle = False
        self._tx_is_ctrl = False   # the frame on the air is an ACK/CTS
        self._tx_is_rts = False    # the frame on the air is our RTS
        self._tx_in_flight = False
        self._nav_until = 0.0
        self._nav_wakeup = None

        # counters for tests and ablations
        self.tx_attempts = 0
        self.ack_timeouts = 0
        self.cts_timeouts = 0
        self.rts_sent = 0
        self.nav_deferrals = 0
        self.delivered_up = 0

    # ------------------------------------------------------------- interface

    def send(self, packet: "Packet", dst: Optional[int] = None,
             priority: float = 0.0) -> bool:
        """Queue a packet.  ``dst=None`` broadcasts; returns False on drop."""
        job = TxJob(
            packet=packet,
            dst=dst,
            size_bytes=packet.size_bytes + MAC_HEADER_SIZE,
            priority=priority,
            enqueued_at=self.now,
        )
        accepted = self.queue.push(job)
        if not accepted:
            if self.ctx.observing:
                self.ctx.obs.on_drop(self.now, self.node_id, "mac",
                                     DropReason.QUEUE_OVERFLOW, packet.uid)
            return False
        if self.ctx.observing:
            self.ctx.obs.on_enqueue(self.now, self.node_id, packet.uid,
                                    len(self.queue))
        self._kick()
        return True

    def cancel_send(self, uid: int) -> bool:
        """Withdraw the packet with this ``uid`` if it has not hit the air.

        Election-based protocols use this when a node loses the election
        *after* its relay left the network layer: the packet may still be
        sitting in the transmit queue or counting down its CSMA backoff, and
        transmitting it then would be pure redundancy.  Returns True if a
        transmission was prevented.
        """
        current = self._current
        if current is None:
            # Every path that empties the service slot refills it from the
            # queue (or purges the queue), so nothing is queued either.
            return False
        if (current.packet.uid != uid or self._tx_in_flight
                or self._ack_handle is not None or self._cts_handle is not None):
            return self.queue.cancel(uid)
        if self._backoff_handle is not None:
            self._backoff_handle.cancel()
            self._backoff_handle = None
        self._waiting_for_idle = False
        self._current = None
        self._current_seq = None
        self._kick()
        return True

    @property
    def busy(self) -> bool:
        return self._current is not None or bool(self.queue)

    # ------------------------------------------------------------------ NAV

    @property
    def nav_busy(self) -> bool:
        return self.now < self._nav_until

    def _set_nav(self, until: float) -> None:
        if until <= self._nav_until:
            return
        self._nav_until = until
        if self._nav_wakeup is not None:
            self._nav_wakeup.cancel()
        self._nav_wakeup = self.schedule(until - self.now, self._nav_expired)

    def _nav_expired(self) -> None:
        self._nav_wakeup = None
        if (
            self._current is not None
            and self._waiting_for_idle
            and self._ack_handle is None
            and self._cts_handle is None
            and not self._tx_in_flight
            and not self.radio.carrier_busy()
        ):
            self._start_access()

    def _medium_busy(self) -> bool:
        return self.radio.carrier_busy() or self.nav_busy

    # --------------------------------------------------------- job servicing

    def _kick(self) -> None:
        if self._current is not None:
            return
        job = self.queue.pop()
        if job is None:
            return
        self._current = job
        self._current_seq = self._seq
        self._seq += 1
        self._start_access()

    def _uses_rts(self, job: TxJob) -> bool:
        threshold = self.config.rts_threshold_bytes
        return (threshold is not None and job.dst is not None
                and job.size_bytes >= threshold)

    def _start_access(self) -> None:
        if not self.radio.is_on:
            self._fail_current(silent=True)
            return
        if self._medium_busy():
            self._waiting_for_idle = True
            if self.nav_busy:
                self.nav_deferrals += 1
            return
        self._waiting_for_idle = False
        cfg = self.config
        assert self._current is not None
        cw = cfg.cw_slots(self._current.retries)
        backoff = (cfg.difs_s
                   + float(self._rng.uniform(0.0, cw)) * cfg.slot_s) * self.time_scale
        if self.ctx.observing:
            self.ctx.obs.on_contend(self.now, self.node_id,
                                    self._current.packet.uid,
                                    backoff, self._current.retries)
        self._backoff_handle = self.schedule(backoff, self._access_fire)

    def _access_fire(self) -> None:
        self._backoff_handle = None
        if self._current is None:
            return
        if not self.radio.is_on:
            self._fail_current(silent=True)
            return
        if self._medium_busy():
            # Medium got busy during the countdown: defer, redraw later.
            self._waiting_for_idle = True
            return
        job = self._current
        if self._uses_rts(job):
            self._transmit_rts(job)
        else:
            self._transmit_data(job)

    # ------------------------------------------------------------- transmit

    def _data_frame(self, job: TxJob) -> Frame:
        return Frame(
            src=self.node_id,
            dst=job.dst,
            seq=self._current_seq,  # stable across retransmissions
            payload=job.packet,
            size_bytes=job.size_bytes,
        )

    def _exchange_nav(self, job: TxJob, from_rts: bool) -> float:
        """Remaining reservation announced by RTS (or CTS) for this job."""
        cfg = self.config
        data_air = cfg.airtime_s(job.size_bytes)
        ack_air = cfg.airtime_s(MAC_ACK_SIZE)
        nav = 2 * cfg.sifs_s + data_air + ack_air
        if from_rts:
            nav += cfg.sifs_s + cfg.airtime_s(MAC_CTS_SIZE)
        return nav

    def _transmit_rts(self, job: TxJob) -> None:
        rts = Frame(
            src=self.node_id,
            dst=job.dst,
            seq=self._current_seq,
            payload=None,
            size_bytes=MAC_RTS_SIZE,
            subtype="rts",
            nav_s=self._exchange_nav(job, from_rts=True),
        )
        if not self.radio.transmit(rts, self.config.airtime_s(MAC_RTS_SIZE)):
            self._waiting_for_idle = True
            return
        self.rts_sent += 1
        self._tx_in_flight = True
        self._tx_is_rts = True

    def _transmit_data(self, job: TxJob) -> None:
        frame = self._data_frame(job)
        if not self.radio.transmit(frame, self.config.airtime_s(frame.size_bytes)):
            self._waiting_for_idle = True
            return
        self.tx_attempts += 1
        self._tx_in_flight = True

    def _on_tx_done(self) -> None:
        if not self._tx_in_flight:
            return
        self._tx_in_flight = False
        if self._tx_is_ctrl:
            self._tx_is_ctrl = False
            self._resume_if_waiting()
            return
        if self._tx_is_rts:
            self._tx_is_rts = False
            self._cts_handle = self.schedule(
                self.config.cts_timeout_s, self._on_cts_timeout)
            return
        job = self._current
        if job is None:
            return
        if job.dst is None:
            self._complete_current()
        else:
            self._ack_handle = self.schedule(
                self.config.ack_timeout_s, self._on_ack_timeout
            )

    def _resume_if_waiting(self) -> None:
        if (self._current is not None and self._waiting_for_idle
                and not self._medium_busy()):
            self._start_access()

    def _retry_or_fail(self) -> None:
        job = self._current
        if job is None:
            return
        job.retries += 1
        if job.retries > self.config.retry_limit:
            self._fail_current(silent=False)
        else:
            self._start_access()

    def _on_ack_timeout(self) -> None:
        self._ack_handle = None
        self.ack_timeouts += 1
        self._retry_or_fail()

    def _on_cts_timeout(self) -> None:
        self._cts_handle = None
        self.cts_timeouts += 1
        self._retry_or_fail()

    def _complete_current(self) -> None:
        job = self._current
        self._current = None
        self._current_seq = None
        if job is not None:
            self.sent.emit(job.packet, job.dst)
        self._kick()

    def _fail_current(self, silent: bool) -> None:
        job = self._current
        self._current = None
        self._current_seq = None
        for handle_name in ("_ack_handle", "_backoff_handle", "_cts_handle"):
            handle = getattr(self, handle_name)
            if handle is not None:
                handle.cancel()
                setattr(self, handle_name, None)
        if job is not None:
            if self.ctx.observing:
                reason = (DropReason.RADIO_OFF if silent
                          else DropReason.RETRY_EXHAUSTED)
                self.ctx.obs.on_drop(self.now, self.node_id, "mac", reason,
                                     job.packet.uid, dst=job.dst,
                                     retries=job.retries)
            if not silent:
                self.send_failed.emit(job.packet, job.dst)
        if self.radio.is_on:
            self._kick()
        else:
            # Node is dead: everything queued dies with it, quietly.
            purged = self.queue.purge(DropReason.RADIO_OFF)
            if self.ctx.observing:
                for dead in purged:
                    self.ctx.obs.on_drop(self.now, self.node_id, "mac",
                                         DropReason.RADIO_OFF,
                                         dead.packet.uid)

    # -------------------------------------------------------------- carrier

    def _on_carrier(self, busy: bool) -> None:
        if busy:
            if self._backoff_handle is not None:
                self._backoff_handle.cancel()
                self._backoff_handle = None
                self._waiting_for_idle = True
        else:
            if (
                self._current is not None
                and self._waiting_for_idle
                and self._ack_handle is None
                and self._cts_handle is None
                and not self._tx_in_flight
            ):
                if self.nav_busy:
                    # Physical carrier cleared but a reservation holds us:
                    # the NAV wakeup will resume access.
                    self.nav_deferrals += 1
                else:
                    self._start_access()

    # -------------------------------------------------------------- receive

    def _on_frame(self, frame: Frame, rx: "Reception") -> None:
        # Third-party RTS/CTS reservations charge our NAV.
        if frame.nav_s > 0.0 and frame.dst != self.node_id:
            self._set_nav(self.now + frame.nav_s)

        if frame.subtype == "ack":
            if frame.dst == self.node_id and self._ack_handle is not None \
                    and frame.seq == self._current_seq:
                self._ack_handle.cancel()
                self._ack_handle = None
                self._complete_current()
            return
        if frame.subtype == "rts":
            if frame.dst == self.node_id:
                self.schedule(self.config.sifs_s, self._send_cts, frame)
            return
        if frame.subtype == "cts":
            if frame.dst == self.node_id and self._cts_handle is not None \
                    and frame.seq == self._current_seq:
                self._cts_handle.cancel()
                self._cts_handle = None
                # Medium reserved for us: data goes out after SIFS.
                self.schedule(self.config.sifs_s, self._send_reserved_data)
            return

        if frame.is_broadcast:
            self.delivered_up += 1
            self.to_net.emit(frame.payload, rx)
        elif frame.dst == self.node_id:
            self.schedule(self.config.sifs_s, self._send_ack, frame.src, frame.seq)
            self.delivered_up += 1
            self.to_net.emit(frame.payload, rx)

    def _send_reserved_data(self) -> None:
        job = self._current
        if job is None or not self.radio.is_on:
            return
        frame = self._data_frame(job)
        if not self.radio.transmit(frame, self.config.airtime_s(frame.size_bytes)):
            # Reservation raced something; fall back to normal access.
            self._waiting_for_idle = True
            return
        self.tx_attempts += 1
        self._tx_in_flight = True

    def _send_cts(self, rts: Frame) -> None:
        if not self.radio.is_on:
            return
        nav = max(rts.nav_s - self.config.sifs_s
                  - self.config.airtime_s(MAC_CTS_SIZE), 0.0)
        cts = Frame(src=self.node_id, dst=rts.src, seq=rts.seq, payload=None,
                    size_bytes=MAC_CTS_SIZE, subtype="cts", nav_s=nav)
        if self.radio.transmit(cts, self.config.airtime_s(MAC_CTS_SIZE)):
            self._tx_in_flight = True
            self._tx_is_ctrl = True

    def _send_ack(self, dst: int, seq: int) -> None:
        if not self.radio.is_on:
            return
        ack = Frame(src=self.node_id, dst=dst, seq=seq, payload=None,
                    size_bytes=MAC_ACK_SIZE, subtype="ack")
        # ACKs jump the queue after SIFS; if the radio is mid-transmission we
        # simply skip (the sender times out and retries).
        if self.radio.transmit(ack, self.config.airtime_s(MAC_ACK_SIZE)):
            self._tx_in_flight = True
            self._tx_is_ctrl = True
