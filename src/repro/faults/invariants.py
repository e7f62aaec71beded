"""End-of-run invariant checks over the observability ledger.

Chaos runs are only useful if something *checks* them: metrics moving under
faults is expected, but certain properties must hold under **any** fault
plan — they are what "correctness under failures" means for this stack (the
paper: unreliability "may negatively affect the efficiency, but not the
correctness").  The checker inspects one run's
:class:`~repro.obs.ledger.PacketLedger` after the fact:

* **no-dead-radio-traffic** — no packet event (RX, DELIVER, TX) is
  witnessed by a node strictly inside one of its radio-OFF windows.  The
  windows are reconstructed from the fault entries the injector and
  :class:`~repro.faults.injector.DutyCycleFailure` emit, so this check
  cross-validates the PHY power gating against the fault schedule.
* **ledger-conservation** — every originated packet is accounted for:
  originated = delivered + dropped + in-flight, as a *partition* of uids,
  plus nothing was delivered that was never originated (packets cannot
  materialize from nowhere).
* **unique-origination** — each uid is originated exactly once (uid
  collisions would silently merge two packets' chains).
* **single-forwarder** — election-based flooding elects at most one relay
  per (packet, node): a node never FORWARDs the same uid twice, and never
  forwards a uid it already suppressed.  Protocols with legitimate
  re-forwarding (Routeless Routing retransmits an election when no
  successor answers) run with this check off — pass
  ``single_forwarder=False``.

``check_invariants`` returns the violations (empty list = clean run);
``raise_on_violation=True`` turns any violation into an
:class:`InvariantViolation` for CI gates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.net.packet import uid_str
from repro.obs.ledger import PacketLedger, PacketStage

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.observe import Observability

__all__ = [
    "Violation",
    "InvariantViolation",
    "off_windows",
    "ledger_accounting",
    "check_invariants",
]

#: Fault kinds whose off/on transitions gate radio power (mirror of
#: :data:`repro.faults.injector.RADIO_POWER_KINDS`, kept here so the checker
#: has no dependency on the injector).
_RADIO_POWER_KINDS = ("duty_cycle", "node_crash", "energy_depletion")

#: Packet stages that require a live radio at the witnessing node.
_RADIO_STAGES = (PacketStage.TX, PacketStage.RX, PacketStage.DELIVER)


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough detail to debug the run."""

    invariant: str
    message: str
    detail: dict = field(default_factory=dict, compare=False)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.invariant}] {self.message}"


class InvariantViolation(AssertionError):
    """Raised by ``check_invariants(..., raise_on_violation=True)``."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = "\n".join(f"  - {v}" for v in violations)
        super().__init__(
            f"{len(violations)} invariant violation(s):\n{lines}")


def off_windows(ledger: PacketLedger) -> dict[int, list[tuple[float, float]]]:
    """Per-node radio-OFF windows reconstructed from fault ledger entries.

    A window opens at a radio-power fault with ``action="off"`` and closes
    at the node's next ``action="on"`` (or the end of the run — represented
    as ``float("inf")``).  Overlapping fault processes (a crash during a
    duty-cycle outage) conservatively merge: the radio counts as off while
    *any* process holds it off... which matches :meth:`Transceiver.set_power`
    semantics only approximately — a recovery from one fault re-enables a
    radio another fault turned off.  The injector emits transitions in the
    order it applies them, so the last transition wins, exactly like the
    radio itself.
    """
    windows: dict[int, list[tuple[float, float]]] = {}
    open_since: dict[int, float] = {}
    for entry in ledger.entries:
        if entry.stage is not PacketStage.FAULT:
            continue
        detail = entry.detail or {}
        if detail.get("kind") not in _RADIO_POWER_KINDS:
            continue
        action = detail.get("action")
        node = entry.node
        if action == "off":
            open_since.setdefault(node, entry.time)
        elif action == "on":
            start = open_since.pop(node, None)
            if start is not None:
                windows.setdefault(node, []).append((start, entry.time))
    for node, start in open_since.items():
        windows.setdefault(node, []).append((start, float("inf")))
    return windows


def ledger_accounting(ledger: PacketLedger) -> dict:
    """Partition every originated uid into delivered / dropped / in-flight.

    "Dropped" means every copy died (at least one DROP entry, no DELIVER);
    "in-flight" means neither happened before the run ended (the packet was
    still queued, backing off, or waiting on a pending-election timer).
    """
    originated: set[int] = set()
    delivered: set[int] = set()
    dropped: set[int] = set()
    for entry in ledger.entries:
        if entry.uid is None:
            continue
        if entry.stage is PacketStage.ORIGINATE:
            originated.add(entry.uid)
        elif entry.stage is PacketStage.DELIVER:
            delivered.add(entry.uid)
        elif entry.stage is PacketStage.DROP:
            dropped.add(entry.uid)
    ghost_deliveries = delivered - originated
    dropped_only = (dropped - delivered) & originated
    in_flight = originated - delivered - dropped
    return {
        "originated": originated,
        "delivered": delivered & originated,
        "dropped": dropped_only,
        "in_flight": in_flight,
        "ghost_deliveries": ghost_deliveries,
    }


def _check_dead_radio(ledger: PacketLedger,
                      violations: list[Violation]) -> None:
    windows = off_windows(ledger)
    if not windows:
        return
    for entry in ledger.entries:
        if entry.stage not in _RADIO_STAGES:
            continue
        for start, stop in windows.get(entry.node, ()):
            # Strict bounds: transitions at the exact instant of an event
            # are ordered by the scheduler, not by this checker.
            if start < entry.time < stop:
                violations.append(Violation(
                    "no-dead-radio-traffic",
                    f"node {entry.node} witnessed {entry.stage.value} at "
                    f"t={entry.time:.6f} inside its radio-OFF window "
                    f"[{start:.6f}, {stop if stop != float('inf') else 'end'})",
                    detail={"node": entry.node, "time": entry.time,
                            "stage": entry.stage.value, "uid": entry.uid},
                ))
                break


def _check_conservation(ledger: PacketLedger,
                        violations: list[Violation]) -> None:
    acct = ledger_accounting(ledger)
    for uid in sorted(acct["ghost_deliveries"]):
        violations.append(Violation(
            "ledger-conservation",
            f"uid {uid_str(uid)} was delivered but never originated",
            detail={"uid": uid},
        ))
    n_orig = len(acct["originated"])
    n_sum = (len(acct["delivered"]) + len(acct["dropped"])
             + len(acct["in_flight"]))
    if n_orig != n_sum:  # pragma: no cover - the partition is set algebra;
        # a mismatch means the ledger itself is corrupt.
        violations.append(Violation(
            "ledger-conservation",
            f"originated={n_orig} != delivered+dropped+in_flight={n_sum}",
            detail={k: len(v) for k, v in acct.items()},
        ))


def _check_unique_origination(ledger: PacketLedger,
                              violations: list[Violation]) -> None:
    counts: Counter[int] = Counter()
    for entry in ledger.of_stage(PacketStage.ORIGINATE):
        if entry.uid is not None:
            counts[entry.uid] += 1
    for uid, n in counts.items():
        if n > 1:
            violations.append(Violation(
                "unique-origination",
                f"uid {uid_str(uid)} originated {n} times",
                detail={"uid": uid, "count": n},
            ))


def _check_single_forwarder(ledger: PacketLedger,
                            violations: list[Violation]) -> None:
    forwards: Counter[tuple[int, int]] = Counter()
    suppressed: set[tuple[int, int]] = set()
    late_forwards: set[tuple[int, int]] = set()
    for entry in ledger.entries:
        if entry.uid is None:
            continue
        key = (entry.uid, entry.node)
        if entry.stage is PacketStage.FORWARD:
            forwards[key] += 1
            if key in suppressed:
                late_forwards.add(key)
        elif entry.stage is PacketStage.SUPPRESS:
            suppressed.add(key)
    for (uid, node), n in forwards.items():
        if n > 1:
            violations.append(Violation(
                "single-forwarder",
                f"node {node} forwarded uid {uid_str(uid)} {n} times (one election "
                "must elect at most one uncancelled relay per node)",
                detail={"uid": uid, "node": node, "count": n},
            ))
    for uid, node in sorted(late_forwards):
        violations.append(Violation(
            "single-forwarder",
            f"node {node} forwarded uid {uid_str(uid)} after suppressing it",
            detail={"uid": uid, "node": node},
        ))


def check_invariants(obs: "Observability | PacketLedger", *,
                     single_forwarder: bool = True,
                     raise_on_violation: bool = False) -> list[Violation]:
    """Run every invariant over one run's ledger.

    Accepts the :class:`Observability` bundle or a bare ledger.  Returns
    the violations found (empty = clean); with ``raise_on_violation`` any
    violation raises :class:`InvariantViolation` instead — the form the
    chaos CI job uses.
    """
    ledger = obs.ledger if hasattr(obs, "ledger") else obs
    violations: list[Violation] = []
    _check_unique_origination(ledger, violations)
    _check_conservation(ledger, violations)
    _check_dead_radio(ledger, violations)
    if single_forwarder:
        _check_single_forwarder(ledger, violations)
    if violations and raise_on_violation:
        raise InvariantViolation(violations)
    return violations
