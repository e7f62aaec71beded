"""Half-duplex transceiver with carrier sensing, collisions and power states.

The transceiver mediates between the MAC layer and the shared
:class:`~repro.phy.channel.Channel`:

* **Transmit** — the MAC hands it a frame and a duration; the radio enters
  ``TX`` and asks the channel to deliver the frame to every node in range.
* **Receive** — the channel calls :meth:`begin_receive` / :meth:`end_receive`
  for every frame whose power at this node exceeds the carrier-sense
  threshold.  Frames above the *receive* threshold can be decoded; two
  decodable frames overlapping in time corrupt each other (a collision),
  unless the optional capture margin lets the stronger one survive.
* **Carrier sense** — any energy above the carrier-sense threshold marks the
  medium busy; the MAC is notified on busy/idle transitions.  The sense
  threshold sits below the receive threshold, so nodes defer to transmissions
  they cannot decode — the standard CSMA behaviour the paper's backoff
  machinery assumes.
* **Power states** — ``SLEEP`` and ``OFF`` make the node deaf and mute.  The
  Figure 4 failure model drives :meth:`set_power` directly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.ledger import DropReason
from repro.sim.components import Component, SimContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.mac.frame import Frame
    from repro.phy.channel import Channel
    from repro.phy.energy import EnergyMeter

__all__ = ["RadioState", "Reception", "RadioConfig", "Transceiver"]


class RadioState(enum.Enum):
    IDLE = "idle"
    TX = "tx"
    RX = "rx"
    SLEEP = "sleep"
    OFF = "off"


# Module-level aliases: the hot path compares states by identity.
_TX = RadioState.TX
_RX = RadioState.RX
_SLEEP = RadioState.SLEEP
_OFF = RadioState.OFF


@dataclass(frozen=True)
class RadioConfig:
    tx_power_dbm: float = 15.0
    rx_threshold_dbm: float = -64.0
    #: Offset below the receive threshold at which energy is still sensed.
    cs_margin_db: float = 6.0
    #: A decodable frame survives a collision if it is stronger than the sum
    #: of interferers by this margin.  ``None`` disables capture.
    #: (Simple-collision model only.)
    capture_margin_db: float | None = None
    #: Use the SINR reception model instead of the simple collision model:
    #: a locked frame survives as long as its power over (noise + summed
    #: interference) stays above ``sinr_threshold_db`` for its whole
    #: duration.  Weak interferers then no longer destroy strong frames.
    sinr_model: bool = False
    sinr_threshold_db: float = 10.0
    noise_floor_dbm: float = -100.0

    @property
    def cs_threshold_dbm(self) -> float:
        return self.rx_threshold_dbm - self.cs_margin_db


class Reception:
    """One copy of one transmission at one receiver: the channel allocates
    it, both edge events carry it, and an intact copy travels on unchanged
    through the MAC to the network layer.  SSAF's backoff reads
    ``power_dbm``; Routeless Routing learns hop counts from ``src``."""

    __slots__ = ("frame", "src", "power_dbm", "corrupted")

    def __init__(self, frame: "Frame", src: int, power_dbm: float):
        self.frame = frame
        self.src = src
        self.power_dbm = power_dbm
        self.corrupted = False


class Transceiver(Component):
    """One node's radio."""

    def __init__(
        self,
        ctx: SimContext,
        node_id: int,
        channel: "Channel",
        config: RadioConfig,
        energy: "EnergyMeter | None" = None,
    ):
        super().__init__(ctx, f"radio[{node_id}]")
        self.node_id = node_id
        self.channel = channel
        self.config = config
        self.energy = energy
        # RadioConfig is frozen: cache what every reception reads.
        self.rx_threshold_dbm = config.rx_threshold_dbm
        self.cs_threshold_dbm = config.cs_threshold_dbm
        self.sinr_model = config.sinr_model

        self.state = RadioState.IDLE
        self._locked: Reception | None = None  # the frame being decoded
        # Live receptions in arrival order (a dict is an ordered set): the
        # SINR interference sum adds their powers in this order.
        self._receptions: dict[Reception, bool] = {}
        self._sensed = 0  # number of ongoing above-CS-threshold receptions
        self._tx_end_handle = None

        #: Fault injection (see :mod:`repro.faults`): probability that an
        #: otherwise-intact reception is corrupted by random bit errors.
        #: 0.0 = off; the hot path pays one float compare.  The RNG is set
        #: by the injector together with a nonzero probability.
        self.fault_corrupt_prob = 0.0
        self._fault_rng = None

        #: Delivers ``(frame, Reception)`` for every intact decoded frame.
        self.to_mac = self.outport("to_mac")
        #: Delivers ``busy: bool`` on medium busy/idle transitions.
        self.carrier = self.outport("carrier")
        #: Fires (no args) when our own transmission completes.
        self.tx_done = self.outport("tx_done")

        channel.register(self)

    # ----------------------------------------------------------------- state

    @property
    def is_on(self) -> bool:
        state = self.state
        return state is not _SLEEP and state is not _OFF

    def carrier_busy(self) -> bool:
        """True when the MAC should defer (energy sensed or transmitting)."""
        return self.state is _TX or self._sensed > 0

    def _set_state(self, state: RadioState) -> None:
        if self.energy is not None:
            self.energy.on_state_change(self.now, self.state, state)
        self.state = state

    def set_power(self, on: bool, sleep: bool = False) -> None:
        """Turn the transceiver on or off (Figure 4's failure model).

        Turning off aborts any reception in progress; the node simply misses
        frames that were in flight — exactly the behaviour that breaks AODV
        routes and that Routeless Routing shrugs off.
        """
        if on:
            if self.state in (RadioState.SLEEP, RadioState.OFF):
                self._set_state(RadioState.IDLE)
        else:
            was_busy = self.carrier_busy()
            if self._tx_end_handle is not None:
                self._tx_end_handle.cancel()
                self._tx_end_handle = None
            self._receptions.clear()
            self._locked = None
            self._sensed = 0
            self._set_state(RadioState.SLEEP if sleep else RadioState.OFF)
            if was_busy:
                self.carrier.emit(False)

    # -------------------------------------------------------------- transmit

    def transmit(self, frame: "Frame", duration: float) -> bool:
        """Start transmitting.  Returns False if the radio cannot send now."""
        if not self.is_on or self.state is _TX:
            return False
        # Half-duplex: starting a transmission destroys any reception that
        # was being decoded.
        if self._locked is not None:
            self._locked.corrupted = True
            self._locked = None
        self._set_state(RadioState.TX)
        self._tx_end_handle = self.schedule(duration, self._finish_tx)
        self.channel.transmit(self.node_id, frame, duration)
        return True

    def _finish_tx(self) -> None:
        self._tx_end_handle = None
        self._set_state(RadioState.IDLE)
        # A reception that began mid-transmission was corrupted at
        # begin_receive time; nothing to resume here.
        self.tx_done.emit()
        if not self.carrier_busy():
            # Leaving TX may have freed the medium from the MAC's viewpoint.
            self.carrier.emit(False)

    # --------------------------------------------------------------- receive

    def begin_receive(self, rec: Reception) -> None:
        """Channel callback: a frame's leading edge reached this node."""
        state = self.state
        if state is _SLEEP or state is _OFF:
            return
        power_dbm = rec.power_dbm
        self._receptions[rec] = True

        if power_dbm >= self.cs_threshold_dbm:
            self._sensed += 1
            if self._sensed == 1 and state is not _TX:
                self.carrier.emit(True)

        if power_dbm < self.rx_threshold_dbm:  # sensed, not decodable
            if self.sinr_model:
                self._check_locked_sinr()
            return
        if state is _TX:
            rec.corrupted = True
            return
        if self.sinr_model:
            self._begin_receive_sinr(rec)
            return
        current = self._locked
        if current is None:
            self._locked = rec
            self._set_state(RadioState.RX)
            return
        margin = self.config.capture_margin_db
        if margin is not None and current.power_dbm >= power_dbm + margin:
            # Strong ongoing frame captures the channel; the newcomer is
            # lost but the lock survives.
            rec.corrupted = True
            return
        current.corrupted = True
        rec.corrupted = True

    # -------------------------------------------------------- SINR variant

    def _interference_mw(self, excluding: Reception) -> float:
        """Summed linear power of every ongoing reception except one."""
        total = 0.0
        for rec in self._receptions:
            if rec is not excluding:
                total += 10.0 ** (rec.power_dbm / 10.0)
        return total

    def _sinr_db(self, rec: Reception) -> float:
        signal_mw = 10.0 ** (rec.power_dbm / 10.0)
        noise_mw = 10.0 ** (self.config.noise_floor_dbm / 10.0)
        return 10.0 * math.log10(signal_mw / (noise_mw + self._interference_mw(rec)))

    def _check_locked_sinr(self) -> None:
        """Corrupt the locked frame if interference just drowned it."""
        current = self._locked
        if current is not None and not current.corrupted:
            if self._sinr_db(current) < self.config.sinr_threshold_db:
                current.corrupted = True

    def _begin_receive_sinr(self, rec: Reception) -> None:
        if self._locked is None:
            # Lock on only if the frame clears the SINR bar right now.
            if self._sinr_db(rec) >= self.config.sinr_threshold_db:
                self._locked = rec
                self._set_state(RadioState.RX)
            else:
                rec.corrupted = True
            return
        # A decodable newcomer: it is interference to the locked frame...
        self._check_locked_sinr()
        if self._locked.corrupted:
            # ...and may capture the lock if it is strong enough itself.
            if self._sinr_db(rec) >= self.config.sinr_threshold_db:
                self._locked = rec
                return
        rec.corrupted = True

    def end_receive(self, rec: Reception) -> None:
        """Channel callback: the frame's trailing edge passed this node."""
        if not self._receptions.pop(rec, False):
            return  # radio was off when the frame arrived (or cycled off/on)

        if rec.power_dbm >= self.cs_threshold_dbm:
            self._sensed = max(0, self._sensed - 1)
            if self._sensed == 0 and self.state is not _TX:
                self.carrier.emit(False)

        if self._locked is rec:
            self._locked = None
            if self.state is _RX:
                self._set_state(RadioState.IDLE)
            if (not rec.corrupted and self.fault_corrupt_prob > 0.0
                    and float(self._fault_rng.random()) < self.fault_corrupt_prob):
                # Injected PHY fault: the frame decoded fine, but random bit
                # errors destroyed it.  Distinct from COLLISION so chaos
                # reports attribute the loss to the fault plan.
                if self.ctx.observing:
                    payload = rec.frame.payload
                    self.ctx.obs.on_drop(
                        self.now, self.node_id, "phy",
                        DropReason.FAULT_CORRUPTED,
                        payload.uid if payload is not None else None)
                return
            if not rec.corrupted:
                if self.ctx.observing:
                    payload = rec.frame.payload
                    self.ctx.obs.on_rx(
                        self.now, self.node_id,
                        payload.uid if payload is not None else None,
                        rec.power_dbm)
                self.to_mac.emit(rec.frame, rec)
            else:
                if self.ctx.observing:
                    # The frame this radio locked onto arrived corrupted:
                    # that copy died to a collision (or SINR drowning).
                    payload = rec.frame.payload
                    self.ctx.obs.on_drop(
                        self.now, self.node_id, "phy", DropReason.COLLISION,
                        payload.uid if payload is not None else None)
