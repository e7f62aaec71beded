"""Timeline export: packet-ledger rows as Chrome trace-event JSON.

The Chrome trace-event format is the lingua franca of timeline viewers:
``chrome://tracing`` and Perfetto (https://ui.perfetto.dev) both load it
directly.  We map the simulation onto it as

* one *process* per layer (``phy``/``mac``/``net``) so Perfetto groups
  tracks the way the stack is layered, plus a ``fault`` process for
  injected fault transitions (crashes, duty-cycle outages);
* one *thread* per node, so every node gets a row per layer;
* transmissions (which have an airtime) as complete events (``ph: "X"``,
  with ``dur``); everything else as instant events (``ph: "i"``);
* drops flagged with their typed reason in ``args``.

Timestamps are microseconds (the format's unit); the simulation clock is
seconds, so a 1 ms airtime renders as a 1000-unit slice.

A flat JSONL export of the same records is provided for ad-hoc analysis
(``jq``, pandas) without a trace viewer.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.net.packet import uid_str
from repro.obs.ledger import PacketLedger, PacketStage

__all__ = [
    "chrome_trace_events",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]

_LAYER_PID = {"phy": 1, "mac": 2, "net": 3, "fault": 4}
_PID_NAME = {0: "other", **{pid: layer for layer, pid in _LAYER_PID.items()}}
_S_TO_US = 1e6


def chrome_trace_events(ledger: PacketLedger) -> list[dict]:
    """The ``traceEvents`` list: one event per ledger entry, plus the
    metadata events naming each layer's process and each node's thread."""
    events: list[dict] = []
    seen_threads: set[tuple[int, int]] = set()

    for entry in ledger.entries:
        pid = _LAYER_PID.get(entry.layer, 0)
        tid = entry.node
        seen_threads.add((pid, tid))
        args = {"uid": "-" if entry.uid is None else uid_str(entry.uid)}
        if entry.reason is not None:
            args["reason"] = entry.reason.value
        if entry.detail:
            args.update(entry.detail)
        name = (f"drop:{entry.reason.value}"
                if entry.stage is PacketStage.DROP and entry.reason is not None
                else entry.stage.value)
        event = {
            "name": name,
            "cat": entry.layer,
            "pid": pid,
            "tid": tid,
            "ts": entry.time * _S_TO_US,
            "args": args,
        }
        duration = (entry.detail or {}).get("duration_s")
        if entry.stage is PacketStage.TX and duration is not None:
            event["ph"] = "X"
            event["dur"] = duration * _S_TO_US
        else:
            event["ph"] = "i"
            event["s"] = "t"  # instant scoped to its thread (node row)
        events.append(event)

    # Metadata events name the process/thread rows in the viewer.
    for pid in sorted({p for p, _t in seen_threads}):
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                       "args": {"name": _PID_NAME[pid]}})
    for pid, tid in sorted(seen_threads):
        events.append({"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                       "args": {"name": f"node {tid}"}})
    return events


def to_chrome_trace(ledger: PacketLedger) -> dict:
    """The full JSON-object form Perfetto/chrome://tracing load."""
    return {
        "traceEvents": chrome_trace_events(ledger),
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs", "time_unit": "us"},
    }


def _prepare(path: str | os.PathLike) -> Path:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    return target


def write_chrome_trace(ledger: PacketLedger, path: str | os.PathLike) -> None:
    """Write a Perfetto-loadable Chrome trace-event JSON file."""
    with open(_prepare(path), "w") as handle:
        json.dump(to_chrome_trace(ledger), handle)
        handle.write("\n")


def write_jsonl(ledger: PacketLedger, path: str | os.PathLike) -> None:
    """One JSON object per ledger entry, in record order."""
    with open(_prepare(path), "w") as handle:
        for entry in ledger.entries:
            handle.write(json.dumps(entry.to_dict()) + "\n")
