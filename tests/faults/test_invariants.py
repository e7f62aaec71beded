"""Invariant checker against synthetic ledgers — each check provoked."""

import pytest

from repro.faults.invariants import (
    InvariantViolation,
    check_invariants,
    ledger_accounting,
    off_windows,
)
from repro.net.packet import PacketKind, packet_uid
from repro.obs.ledger import DropReason, PacketLedger, PacketStage

UID = packet_uid(PacketKind.DATA, 0, 0)
GHOST = packet_uid(PacketKind.DATA, 9, 9)


def fault(ledger, t, node, kind, action):
    ledger.record(t, node, "fault", PacketStage.FAULT, None,
                  kind=kind, action=action)


def clean_ledger() -> PacketLedger:
    ledger = PacketLedger()
    ledger.record(0.0, 0, "net", PacketStage.ORIGINATE, UID)
    ledger.record(0.1, 0, "phy", PacketStage.TX, UID)
    ledger.record(0.2, 1, "phy", PacketStage.RX, UID)
    ledger.record(0.2, 1, "net", PacketStage.DELIVER, UID)
    return ledger


def names(violations):
    return sorted(v.invariant for v in violations)


class TestCleanRun:
    def test_no_violations(self):
        assert check_invariants(clean_ledger()) == []

    def test_accounting_partition(self):
        acct = ledger_accounting(clean_ledger())
        assert acct["originated"] == {UID}
        assert acct["delivered"] == {UID}
        assert acct["dropped"] == set()
        assert acct["in_flight"] == set()
        assert acct["ghost_deliveries"] == set()

    def test_dropped_and_in_flight_accounted(self):
        ledger = clean_ledger()
        dead = packet_uid(PacketKind.DATA, 1, 0)
        ledger.record(0.3, 0, "net", PacketStage.ORIGINATE, dead)
        ledger.record(0.4, 0, "mac", PacketStage.DROP, dead,
                      DropReason.RETRY_EXHAUSTED)
        stuck = packet_uid(PacketKind.DATA, 2, 0)
        ledger.record(0.5, 0, "net", PacketStage.ORIGINATE, stuck)
        acct = ledger_accounting(ledger)
        assert acct["dropped"] == {dead}
        assert acct["in_flight"] == {stuck}
        assert check_invariants(ledger) == []


class TestGhostDelivery:
    def test_delivery_without_origination_flagged(self):
        ledger = clean_ledger()
        ledger.record(0.5, 2, "net", PacketStage.DELIVER, GHOST)
        violations = check_invariants(ledger)
        assert names(violations) == ["ledger-conservation"]
        assert violations[0].message == \
            "uid data:9:9 was delivered but never originated"

    def test_raise_on_violation(self):
        ledger = clean_ledger()
        ledger.record(0.5, 2, "net", PacketStage.DELIVER, GHOST)
        with pytest.raises(InvariantViolation, match="ledger-conservation"):
            check_invariants(ledger, raise_on_violation=True)


class TestDeadRadio:
    def test_traffic_inside_off_window_flagged(self):
        ledger = clean_ledger()
        fault(ledger, 1.0, 1, "node_crash", "off")
        ledger.record(1.5, 1, "phy", PacketStage.RX, UID)
        fault(ledger, 2.0, 1, "node_crash", "on")
        violations = check_invariants(ledger)
        assert names(violations) == ["no-dead-radio-traffic"]

    def test_boundary_events_not_flagged(self):
        # Transitions at the exact event instant are scheduler-ordered;
        # the checker uses strict bounds.
        ledger = clean_ledger()
        fault(ledger, 1.0, 1, "duty_cycle", "off")
        ledger.record(1.0, 1, "phy", PacketStage.RX, UID)
        fault(ledger, 2.0, 1, "duty_cycle", "on")
        ledger.record(2.0, 1, "phy", PacketStage.RX, UID)
        assert check_invariants(ledger) == []

    def test_unclosed_window_extends_to_end(self):
        ledger = clean_ledger()
        fault(ledger, 1.0, 1, "energy_depletion", "off")
        ledger.record(99.0, 1, "phy", PacketStage.TX, UID)
        assert names(check_invariants(ledger)) == ["no-dead-radio-traffic"]

    def test_window_reconstruction(self):
        ledger = PacketLedger()
        fault(ledger, 1.0, 4, "duty_cycle", "off")
        fault(ledger, 2.0, 4, "duty_cycle", "on")
        fault(ledger, 3.0, 4, "node_crash", "off")
        assert off_windows(ledger) == {4: [(1.0, 2.0), (3.0, float("inf"))]}

    def test_non_power_kinds_ignored(self):
        ledger = PacketLedger()
        fault(ledger, 1.0, 4, "packet_corruption", "on")
        fault(ledger, 2.0, 4, "clock_skew", "on")
        assert off_windows(ledger) == {}


class TestUniqueOrigination:
    def test_double_origination_flagged(self):
        ledger = clean_ledger()
        ledger.record(0.6, 0, "net", PacketStage.ORIGINATE, UID)
        violations = check_invariants(ledger)
        assert "unique-origination" in names(violations)
        assert "uid data:0:0 originated 2 times" in \
            [v.message for v in violations]


class TestSingleForwarder:
    def test_double_forward_flagged(self):
        ledger = clean_ledger()
        ledger.record(0.3, 1, "net", PacketStage.FORWARD, UID)
        ledger.record(0.4, 1, "net", PacketStage.FORWARD, UID)
        assert names(check_invariants(ledger)) == ["single-forwarder"]

    def test_forward_after_suppress_flagged(self):
        ledger = clean_ledger()
        ledger.record(0.3, 1, "net", PacketStage.SUPPRESS, UID)
        ledger.record(0.4, 1, "net", PacketStage.FORWARD, UID)
        assert names(check_invariants(ledger)) == ["single-forwarder"]

    def test_opt_out_for_retransmitting_protocols(self):
        ledger = clean_ledger()
        ledger.record(0.3, 1, "net", PacketStage.FORWARD, UID)
        ledger.record(0.4, 1, "net", PacketStage.FORWARD, UID)
        assert check_invariants(ledger, single_forwarder=False) == []

    def test_distinct_nodes_may_forward_once_each(self):
        ledger = clean_ledger()
        ledger.record(0.3, 1, "net", PacketStage.FORWARD, UID)
        ledger.record(0.4, 2, "net", PacketStage.FORWARD, UID)
        assert check_invariants(ledger) == []


def test_accepts_observability_bundle():
    from repro.obs.observe import Observability
    obs = Observability()
    obs.on_originate(0.0, 0, UID)
    obs.on_deliver(0.1, 1, UID, delay_s=0.1, hops=1)
    assert check_invariants(obs) == []
