"""Tests for the Chrome trace-event / JSONL timeline export."""

import json

from repro.net.packet import PacketKind, packet_uid
from repro.obs.ledger import DropReason, PacketLedger, PacketStage
from repro.obs.observe import Observability
from repro.obs.timeline import (
    chrome_trace_events,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

UID = packet_uid(PacketKind.DATA, 0, 0)


def small_ledger() -> PacketLedger:
    ledger = PacketLedger()
    ledger.record(0.0, 0, "net", PacketStage.ORIGINATE, UID)
    ledger.record(0.001, 0, "phy", PacketStage.TX, UID, kind="data",
                  duration_s=0.0005)
    ledger.record(0.0015, 1, "phy", PacketStage.RX, UID, power_dbm=-60.0)
    ledger.record(0.002, 1, "net", PacketStage.DROP, UID,
                  DropReason.DUPLICATE)
    return ledger


def by_name(events, name):
    return [e for e in events if e["name"] == name]


def test_tx_with_airtime_is_a_complete_event():
    events = chrome_trace_events(small_ledger())
    (tx,) = by_name(events, "tx")
    assert tx["ph"] == "X"
    assert tx["ts"] == 0.001 * 1e6
    assert tx["dur"] == 0.0005 * 1e6
    assert tx["pid"] == 1  # phy process


def test_drops_carry_reason_in_name_and_args():
    events = chrome_trace_events(small_ledger())
    (drop,) = by_name(events, "drop:duplicate")
    assert drop["ph"] == "i"
    assert drop["args"]["reason"] == "duplicate"
    assert drop["args"]["uid"] == "data:0:0"


def test_metadata_names_layer_processes_and_node_threads():
    events = chrome_trace_events(small_ledger())
    names = {e["pid"]: e["args"]["name"]
             for e in by_name(events, "process_name")}
    assert names[1] == "phy" and names[3] == "net"
    threads = {(e["pid"], e["tid"]): e["args"]["name"]
               for e in by_name(events, "thread_name")}
    assert threads[(1, 0)] == "node 0" and threads[(1, 1)] == "node 1"


def test_fault_rows_land_in_a_named_fault_process():
    obs = Observability()
    obs.on_fault(0.5, 7, "duty_cycle", "off")
    obs.on_fault(0.9, 7, "duty_cycle", "on")
    events = chrome_trace_events(obs.ledger)
    faults = by_name(events, "fault")
    assert len(faults) == 2
    assert {(e["pid"], e["tid"], e["cat"]) for e in faults} == {(4, 7, "fault")}
    assert faults[0]["args"]["kind"] == "duty_cycle"
    assert faults[0]["args"]["action"] == "off"
    names = {e["pid"]: e["args"]["name"]
             for e in by_name(events, "process_name")}
    assert names == {4: "fault"}


def test_written_file_is_perfetto_loadable_json(tmp_path):
    path = tmp_path / "timeline.json"
    write_chrome_trace(small_ledger(), path)
    doc = json.loads(path.read_text())
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
    assert {e["ph"] for e in doc["traceEvents"]} <= {"X", "i", "M"}
    assert all("ts" in e for e in doc["traceEvents"] if e["ph"] != "M")
    assert doc["displayTimeUnit"] == "ms"


def test_to_chrome_trace_matches_event_list():
    ledger = small_ledger()
    assert to_chrome_trace(ledger)["traceEvents"] == chrome_trace_events(ledger)


def test_jsonl_round_trips_every_entry(tmp_path):
    ledger = small_ledger()
    path = tmp_path / "timeline.jsonl"
    write_jsonl(ledger, path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(rows) == len(ledger)
    assert rows[0]["stage"] == "originate"
    assert rows[-1]["reason"] == "duplicate"
