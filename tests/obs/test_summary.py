"""Tests for the observed-run summary reducer and its CLI rendering."""

import json

from repro.net.packet import PacketKind, packet_uid
from repro.obs.ledger import DropReason
from repro.obs.observe import Observability
from repro.obs.summary import format_summary, summarize


def observed_run() -> Observability:
    obs = Observability()
    uid = packet_uid(PacketKind.DATA, 0, 0)
    obs.on_originate(0.0, 0, uid)
    obs.on_enqueue(0.0, 0, uid, depth=1)
    obs.on_tx(0.001, 0, uid, "data", 0.002)
    obs.on_tx(0.004, 1, uid, "data", 0.002)
    obs.on_rx(0.003, 1, uid, -55.0)
    obs.on_drop(0.005, 2, "net", DropReason.DUPLICATE, uid)
    obs.on_drop(0.006, 3, "net", DropReason.DUPLICATE, uid)
    obs.on_drop(0.007, 4, "mac", DropReason.QUEUE_OVERFLOW, uid)
    obs.on_deliver(0.008, 5, uid, delay_s=0.008, hops=2)
    obs.on_election_win(0.004, 1, uid, "ssaf", backoff_s=0.003)
    return obs


def test_summarize_shape_and_invariants():
    report = summarize(observed_run())
    assert report["total_drops"] == 3
    assert report["drops_by_reason"] == {"duplicate": 2, "queue_overflow": 1}
    assert sum(report["drops_by_reason"].values()) == report["total_drops"]
    assert report["tx_by_kind"] == {"data": 2.0}
    assert report["airtime_by_kind"]["data"] == 0.004
    assert report["stages"]["deliver"] == 1
    assert report["election_wins"]["ssaf"]["count"] == 1
    assert report["election_wins"]["ssaf"]["mean_backoff_s"] == 0.003


def test_summarize_is_json_safe():
    report = summarize(observed_run())
    assert json.loads(json.dumps(report)) == report


def test_drops_sorted_most_frequent_first():
    report = summarize(observed_run())
    assert list(report["drops_by_reason"]) == ["duplicate", "queue_overflow"]


def test_format_summary_renders_all_sections():
    text = format_summary(summarize(observed_run()))
    assert "drops: 3 total" in text
    assert "duplicate" in text and "queue_overflow" in text
    assert "transmissions by frame kind:" in text
    assert "election-win backoff (ssaf): 1 wins" in text


def test_format_summary_empty_run():
    text = format_summary(summarize(Observability()))
    assert "drops: 0 total" in text
    assert "(none)" in text


def test_link_budget_gauge_keeps_peak_and_renders():
    obs = Observability()
    obs.on_link_budget(12_500_000)
    obs.on_link_budget(37_600_000)
    obs.on_link_budget(1_000)  # later, smaller rebuild: peak must stick
    report = summarize(obs)
    assert report["link_budget_bytes"] == 37_600_000.0
    assert "channel link budget: 37.60 MB peak" in format_summary(report)


def test_link_budget_absent_when_no_channel_reported():
    report = summarize(Observability())
    assert report["link_budget_bytes"] is None
    assert "link budget" not in format_summary(report)
