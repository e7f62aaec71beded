"""Executes a :class:`~repro.faults.plan.FaultPlan` against a built network.

:func:`install_plan` translates every declarative spec into scheduled sim
events on a single :class:`FaultController` component, before the simulation
starts.  Everything stochastic draws from named :mod:`repro.sim.rng`
streams, keyed by fault kind and node id — never by installation order — so
any (plan, seed) pair replays bit-identically regardless of how the plan's
faults are listed.

Determinism notes worth keeping in mind when adding fault kinds:

* Duty-cycle outages run one :class:`DutyCycleFailure` per covered radio,
  built in radio order and named ``failure[{node}]``, so each node's
  renewal process draws from its own named stream.
* Per-node streams (``faults.corrupt[{n}]``, ``faults.skew[{n}]``) mean the
  set of *other* affected nodes never shifts a node's own draws.
* Link faults mutate a shared sparse ``{(src, dst): dB}`` offset map;
  activation/deactivation are additive/subtractive, so overlapping link
  faults compose, and a deactivation cancels its activation exactly
  (identical float sequence), leaving the link pristine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.obs.ledger import DropReason
from repro.sim.components import Component, SimContext
from repro.faults.plan import (
    ClockSkew,
    DutyCycleOutage,
    EnergyDepletion,
    FaultPlan,
    FaultSpec,
    LinkDegradation,
    NodeCrash,
    PacketCorruption,
    Partition,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.common import Network
    from repro.phy.radio import Transceiver

__all__ = ["DutyCycleFailure", "FaultController", "install_plan",
           "PARTITION_LOSS_DB"]

#: Pathloss injected across partition boundaries — far beyond any link
#: margin in these scenarios, so cross-group links are dead while active.
PARTITION_LOSS_DB = 1000.0

#: Fault kinds whose off/on ledger transitions toggle radio power; the
#: invariant checker reconstructs per-node OFF windows from these.
RADIO_POWER_KINDS = ("duty_cycle", "node_crash", "energy_depletion")


class DutyCycleFailure(Component):
    """Drives one transceiver's on/off renewal process (Figure 4's failure).

    The paper: "a node failure of 10% means that randomly selected 10% of
    the time the transceiver of a node is turned off and not able to
    transmit or receive any packets."  ON and OFF periods are exponential,
    scaled so the long-run OFF fraction is ``off_fraction``; with the
    default 4 s cycle and 10 % failure a node drops out for ~0.4 s at a
    time, long enough to break an AODV route.  ``sleep=True`` models
    voluntary low-power naps instead: the same radio silence, a tiny
    residual draw on the energy meter.
    """

    def __init__(self, ctx: SimContext, radio: "Transceiver",
                 off_fraction: float, mean_cycle_s: float = 4.0,
                 sleep: bool = False):
        super().__init__(ctx, f"failure[{radio.node_id}]")
        if not 0.0 <= off_fraction < 1.0:
            raise ValueError("off_fraction must be in [0, 1)")
        if mean_cycle_s <= 0:
            raise ValueError("mean_cycle_s must be positive")
        self.radio = radio
        self.sleep = sleep
        self.off_fraction = off_fraction
        self.mean_on_s = (1.0 - off_fraction) * mean_cycle_s
        self.mean_off_s = off_fraction * mean_cycle_s
        self._rng = self.rng()
        self.outages = 0
        self.time_off = 0.0
        if off_fraction > 0.0:
            # Start each node at a random phase of its cycle.
            first_on = float(self._rng.exponential(self.mean_on_s))
            self.schedule(first_on, self._go_off)

    def _go_off(self) -> None:
        off_for = float(self._rng.exponential(self.mean_off_s))
        self.outages += 1
        self.time_off += off_for
        self.radio.set_power(False, sleep=self.sleep)
        if self.ctx.observing:
            self.ctx.obs.on_fault(self.now, self.radio.node_id,
                                  "duty_cycle", "off", off_for_s=off_for)
        self.schedule(off_for, self._go_on)

    def _go_on(self) -> None:
        self.radio.set_power(True)
        if self.ctx.observing:
            self.ctx.obs.on_fault(self.now, self.radio.node_id,
                                  "duty_cycle", "on")
        self.schedule(float(self._rng.exponential(self.mean_on_s)), self._go_off)


class FaultController(Component):
    """One network's installed fault plan: schedules every transition and
    owns the shared per-link offset map."""

    def __init__(self, ctx: SimContext, net: "Network", plan: FaultPlan,
                 exempt: Iterable[int] = ()):
        super().__init__(ctx, "faults")
        self.net = net
        self.plan = plan
        self.exempt = frozenset(int(n) for n in exempt)
        self.n_nodes = len(net.radios)

        #: Duty-cycle processes created by the plan, for tests and reports.
        self.duty_cycles: list[DutyCycleFailure] = []
        #: node id -> drawn clock-rate factor (clock_skew faults).
        self.skew_factors: dict[int, float] = {}
        #: node ids shut down for good by energy depletion.
        self.depleted: set[int] = set()

        self._link_offsets: dict[tuple[int, int], float] = {}
        self._active_link_faults = 0
        self._energy_polls: dict[int, object] = {}  # node -> poll handle

        all_ids = frozenset(r.node_id for r in net.radios)
        unknown_exempt = self.exempt - all_ids
        if unknown_exempt:
            raise ValueError(f"exempt node id(s) {sorted(unknown_exempt)} "
                             "name no radio in the network")
        for spec in plan.faults:
            self._validate_nodes(spec)
        for spec in plan.faults:
            self._install(spec)

    # ---------------------------------------------------------------- helpers

    def _validate_nodes(self, spec: FaultSpec) -> None:
        named: set[int] = set(spec.nodes or ())
        if isinstance(spec, LinkDegradation):
            named = {n for pair in spec.pairs for n in pair}
        elif isinstance(spec, Partition):
            named = {n for group in spec.groups for n in group}
        out_of_range = {n for n in named
                        if not 0 <= n < self.n_nodes}
        if out_of_range:
            raise ValueError(
                f"fault {spec.kind!r} names node id(s) {sorted(out_of_range)} "
                f"outside 0..{self.n_nodes - 1}")

    def _selected(self, spec: FaultSpec, honour_exempt: bool = True) -> list[int]:
        """Node ids a spec applies to — explicit set or all nodes, minus the
        experiment's exemption set when the spec honours it."""
        ids: Iterable[int]
        if spec.nodes is None:
            ids = range(self.n_nodes)
        else:
            ids = spec.nodes
        if honour_exempt:
            return [n for n in ids if n not in self.exempt]
        return list(ids)

    def _emit(self, node: int, kind: str, action: str, **detail) -> None:
        if self.ctx.observing:
            self.ctx.obs.on_fault(self.now, node, kind, action, **detail)

    # ---------------------------------------------------------------- install

    def _install(self, spec: FaultSpec) -> None:
        if isinstance(spec, NodeCrash):
            self._install_crash(spec)
        elif isinstance(spec, DutyCycleOutage):
            self._install_duty_cycle(spec)
        elif isinstance(spec, LinkDegradation):
            self._install_link_degradation(spec)
        elif isinstance(spec, Partition):
            self._install_partition(spec)
        elif isinstance(spec, PacketCorruption):
            self._install_corruption(spec)
        elif isinstance(spec, ClockSkew):
            self._install_clock_skew(spec)
        elif isinstance(spec, EnergyDepletion):
            self._install_energy_depletion(spec)
        else:  # pragma: no cover - new kinds must add an installer
            raise TypeError(f"no installer for fault kind {spec.kind!r}")

    # ------------------------------------------------------------ node crash

    def _install_crash(self, spec: NodeCrash) -> None:
        for node in self._selected(spec):
            self.schedule(spec.start_s, self._crash_node, node)
            if spec.recover_s is not None:
                self.schedule(spec.recover_s, self._recover_node, node)

    def _crash_node(self, node: int) -> None:
        self.net.radios[node].set_power(False)
        self._emit(node, "node_crash", "off")

    def _recover_node(self, node: int) -> None:
        if node in self.depleted:
            return  # energy ran out meanwhile; depletion is permanent
        self.net.radios[node].set_power(True)
        self._emit(node, "node_crash", "on")

    # ------------------------------------------------------------ duty cycle

    def _install_duty_cycle(self, spec: DutyCycleOutage) -> None:
        chosen = set(self._selected(spec, honour_exempt=spec.exempt_endpoints))
        self.duty_cycles.extend(
            DutyCycleFailure(self.ctx, radio, spec.off_fraction,
                             spec.mean_cycle_s, sleep=spec.sleep)
            for radio in self.net.radios if radio.node_id in chosen)

    # ----------------------------------------------------------- link faults

    def _apply_offsets(self) -> None:
        channel = self.net.channel
        if self._active_link_faults > 0:
            channel.set_link_offsets(self._link_offsets)
        else:
            channel.set_link_offsets(None)

    def _shift_links(self, pairs: Sequence[tuple[int, int]], delta_db: float,
                     kind: str, action: str, detail: dict) -> None:
        offsets = self._link_offsets
        touched: set[int] = set()
        for a, b in pairs:
            # Same accumulation sequence a dense matrix entry would see, so
            # on/off pairs cancel to exactly 0.0 and the entry is dropped —
            # the sparse channel patches only rows that still carry offsets.
            value = offsets.get((a, b), 0.0) + delta_db
            if value == 0.0:
                offsets.pop((a, b), None)
            else:
                offsets[(a, b)] = value
            touched.update((a, b))
        self._active_link_faults += 1 if delta_db < 0 else -1
        self._apply_offsets()
        for node in sorted(touched):
            self._emit(node, kind, action, **detail)

    def _install_link_degradation(self, spec: LinkDegradation) -> None:
        pairs = list(spec.pairs)
        if spec.symmetric:
            pairs += [(b, a) for a, b in spec.pairs]
        detail = {"loss_db": spec.loss_db}
        self.schedule(spec.start_s, self._shift_links, pairs, -spec.loss_db,
                      "link_degradation", "on", detail)
        if spec.stop_s is not None:
            self.schedule(spec.stop_s, self._shift_links, pairs, spec.loss_db,
                          "link_degradation", "off", detail)

    def _install_partition(self, spec: Partition) -> None:
        pairs: list[tuple[int, int]] = []
        for i, group in enumerate(spec.groups):
            for other in spec.groups[i + 1:]:
                for a in group:
                    for b in other:
                        pairs.append((a, b))
                        pairs.append((b, a))
        detail = {"groups": len(spec.groups)}
        self.schedule(spec.start_s, self._shift_links, pairs,
                      -PARTITION_LOSS_DB, "partition", "on", detail)
        if spec.stop_s is not None:
            self.schedule(spec.stop_s, self._shift_links, pairs,
                          PARTITION_LOSS_DB, "partition", "off", detail)

    # ------------------------------------------------------------ corruption

    def _install_corruption(self, spec: PacketCorruption) -> None:
        nodes = self._selected(spec)
        self.schedule(spec.start_s, self._corruption_on, nodes,
                      spec.probability)
        if spec.stop_s is not None:
            self.schedule(spec.stop_s, self._corruption_off, nodes)

    def _corruption_on(self, nodes: list[int], probability: float) -> None:
        for node in nodes:
            radio = self.net.radios[node]
            # Per-node stream: other nodes' receptions never perturb ours.
            radio._fault_rng = self.ctx.streams.stream(
                f"faults.corrupt[{node}]")
            radio.fault_corrupt_prob = probability
            self._emit(node, "packet_corruption", "on",
                       probability=probability)

    def _corruption_off(self, nodes: list[int]) -> None:
        for node in nodes:
            self.net.radios[node].fault_corrupt_prob = 0.0
            self._emit(node, "packet_corruption", "off")

    # ------------------------------------------------------------ clock skew

    def _install_clock_skew(self, spec: ClockSkew) -> None:
        nodes = self._selected(spec)
        self.schedule(spec.start_s, self._skew_on, nodes, spec)

    def _skew_on(self, nodes: list[int], spec: ClockSkew) -> None:
        sources_by_node: dict[int, list] = {}
        for source in self.net.sources:
            sources_by_node.setdefault(source.protocol.node_id,
                                       []).append(source)
        for node in nodes:
            rng = self.ctx.streams.stream(f"faults.skew[{node}]")
            factor = max(spec.min_factor, 1.0 + float(rng.normal(0.0, spec.sigma)))
            self.skew_factors[node] = factor
            self.net.macs[node].time_scale = factor
            for source in sources_by_node.get(node, ()):
                source.time_scale = factor
            self._emit(node, "clock_skew", "on", factor=factor)

    # ------------------------------------------------------ energy depletion

    def _install_energy_depletion(self, spec: EnergyDepletion) -> None:
        nodes = self._selected(spec)
        for node in nodes:
            if self.net.radios[node].energy is None:
                raise ValueError(
                    f"energy_depletion on node {node} needs the scenario "
                    "built with with_energy=True (no energy meter attached)")
        for node in nodes:
            self.schedule(spec.start_s + spec.poll_s, self._poll_energy,
                          node, spec)

    def _poll_energy(self, node: int, spec: EnergyDepletion) -> None:
        if node in self.depleted:
            return
        radio = self.net.radios[node]
        if not radio.is_on:
            # Can't deplete while already off; keep watching for recovery.
            self.schedule(spec.poll_s, self._poll_energy, node, spec)
            return
        consumed = radio.energy.finalize(self.now)
        if consumed < spec.capacity_j:
            self.schedule(spec.poll_s, self._poll_energy, node, spec)
            return
        self.depleted.add(node)
        # The battery is dead for good: drain the MAC queue under the
        # fault-specific reason, then cut power.
        mac = self.net.macs[node]
        purged = mac.queue.purge(DropReason.ENERGY_DEPLETED)
        if self.ctx.observing:
            for job in purged:
                self.ctx.obs.on_drop(self.now, node, "mac",
                                     DropReason.ENERGY_DEPLETED,
                                     job.packet.uid)
        radio.set_power(False)
        self._emit(node, "energy_depletion", "off", consumed_j=consumed)


def install_plan(net: "Network", plan: FaultPlan,
                 exempt: Iterable[int] = ()) -> FaultController:
    """Install ``plan`` on a freshly built network, before ``net.run``.

    ``exempt`` is the experiment's protected node set (the CBR endpoints,
    per Figure 4's convention); specs that honour it never touch those
    nodes.  Returns the controller for inspection.
    """
    return FaultController(net.ctx, net, plan, exempt=exempt)
