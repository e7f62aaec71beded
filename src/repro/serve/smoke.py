"""Serve smoke gate: boot the daemon, prove the serving invariants.

Run in CI as ``python -m repro.serve.smoke``.  Boots an in-process daemon
on an ephemeral port with a temporary cache, then checks, end to end over
real HTTP:

1. **Single-flight dedup** — two clients submit the *same* small fig1 cell
   concurrently; the cell executes exactly once and both clients receive
   the full result.
2. **Cache-warm replay** — a third, later request for the same cell is
   answered HTTP 200 straight from the cache without touching the
   executor, and it rode the interactive lane when it did execute.
3. **Clean SSE stream** — the cell's event stream replays the complete
   ``queued → running → done`` sequence, the terminal event is marked,
   and it carries the obs metrics snapshot.
4. **Exposition syntax** — after one more traced query on its own cell,
   ``GET /metrics`` parses with the strict stdlib parser
   (:func:`repro.obs.prom.parse_exposition`): every family typed,
   histograms cumulative with a ``+Inf`` bucket.
5. **Required series** — request-latency histogram samples for the routes
   the queries touched, lane queue-depth gauges for both lanes, cache
   hit/miss counters, and the execution counter reflecting the two runs.
6. **Trace plumbing** — the trace id the client minted comes back in the
   SSE terminal event and ``GET /v1/traces/{id}`` exports spans covering
   the queue wait, the execution attempt and the simulation run.

Exit status 0 on success; 1 with a diagnostic on any violated invariant.
"""

from __future__ import annotations

import sys
import tempfile
import threading
import urllib.request

from repro.obs.prom import ExpositionError, parse_exposition
from repro.obs.spans import new_trace_id
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ServerThread

#: A fig1 cell small enough for CI but real enough to exercise the full
#: simulator stack (cost 12 nodes x 3 s = 36 node-seconds → interactive).
SMALL_FIG1 = {
    "experiment": "fig1",
    "protocol": "ssaf",
    "x": 1.0,
    "seed": 1,
    "config": {"n_nodes": 12, "terrain_m": 300.0, "n_connections": 3,
               "duration_s": 3.0},
}

#: The traced query's cell: a different seed, so it executes rather than
#: replaying ``SMALL_FIG1`` from the cache, and its trace covers a real run.
TRACED_FIG1 = {**SMALL_FIG1, "seed": 2}


def _fail(message: str) -> int:
    print(f"serve-smoke: FAIL — {message}", file=sys.stderr)
    return 1


def run_smoke() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        config = ServeConfig(port=0, cache_dir=tmp, interactive_workers=1,
                             batch_workers=1, queue_limit=8)
        with ServerThread(config) as srv:
            print(f"serve-smoke: daemon up at {srv.base_url}")
            replies: dict[str, dict] = {}
            errors: list[BaseException] = []
            barrier = threading.Barrier(2)

            def one_client(tag: str) -> None:
                try:
                    client = ServeClient(srv.base_url, timeout_s=120)
                    barrier.wait(timeout=30)
                    replies[tag] = client.run(SMALL_FIG1, timeout_s=120)
                except BaseException as exc:  # noqa: BLE001 - report below
                    errors.append(exc)

            threads = [threading.Thread(target=one_client, args=(tag,))
                       for tag in ("a", "b")]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=180)
            if errors:
                return _fail(f"client error: {errors[0]!r}")
            if set(replies) != {"a", "b"}:
                return _fail("a client never returned")

            # 1. Both clients hold the full result of one execution.
            for tag, reply in replies.items():
                metrics = reply.get("result", {}).get("metrics", {})
                if reply.get("status") != "done" or "delivery_ratio" not in metrics:
                    return _fail(f"client {tag} got no result: {reply}")
            client = ServeClient(srv.base_url, timeout_s=60)
            stats = client.stats()
            executed = stats["scheduler"]["executed"]
            joined = stats["requests"]["dedup_joined"]
            if executed != 1:
                return _fail(f"expected exactly 1 execution, saw {executed}")
            if joined < 1 and stats["requests"]["warm_answers"] < 1:
                return _fail(f"second request neither joined the flight nor "
                             f"hit the cache: {stats['requests']}")
            print(f"serve-smoke: dedup ok (1 execution, {joined} joined)")

            # 2. Replay is cache-warm and the execution used the
            #    interactive lane.
            replay = client.run(SMALL_FIG1, timeout_s=60)
            if replay.get("source") != "cache" or replay.get("http_status") != 200:
                return _fail(f"replay not served from cache: {replay}")
            stats = client.stats()
            if stats["scheduler"]["executed"] != 1:
                return _fail("replay re-executed the cell")
            if stats["scheduler"]["lanes"]["interactive"]["executed"] != 1:
                return _fail(f"small cell did not ride the interactive lane: "
                             f"{stats['scheduler']['lanes']}")
            print("serve-smoke: cache-warm replay ok (interactive lane)")

            # 3. The SSE stream replays a clean queued→running→done life.
            key = replies["a"]["key"]
            events = [payload for _name, payload in client.events(key)]
            statuses = [e["status"] for e in events]
            if statuses != ["queued", "running", "done"]:
                return _fail(f"unexpected SSE sequence: {statuses}")
            terminal = events[-1]
            if not terminal.get("terminal"):
                return _fail("terminal SSE event not marked terminal")
            obs = terminal.get("obs") or {}
            if "repro_packet_events_total" not in obs:
                return _fail("terminal SSE event missing obs snapshot")
            if terminal.get("telemetry", {}).get("wall_s", 0) <= 0:
                return _fail("terminal SSE event missing telemetry")
            print("serve-smoke: SSE stream ok "
                  f"(wall {terminal['telemetry']['wall_s']:.2f}s)")

            status = _check_metrics_and_trace(srv.base_url)
            if status:
                return status

    print("serve-smoke: PASS")
    return 0


def _scrape(base_url: str) -> str:
    with urllib.request.urlopen(f"{base_url}/metrics", timeout=30) as resp:
        content_type = resp.headers.get("Content-Type", "")
        if not content_type.startswith("text/plain"):
            raise ExpositionError(f"bad content type {content_type!r}")
        return resp.read().decode("utf-8")


def _check_metrics_and_trace(base_url: str) -> int:
    """Checks 4-6: one traced query, then the scrape and the trace export."""
    trace_id = new_trace_id()
    client = ServeClient(base_url, timeout_s=120, trace_id=trace_id)
    reply = client.run(TRACED_FIG1, timeout_s=120)
    if reply.get("status") != "done":
        return _fail(f"traced query did not settle: {reply}")
    if reply.get("trace_id") != trace_id:
        return _fail(f"terminal event lost the trace id: {reply}")
    print(f"serve-smoke: traced query done (trace {trace_id})")

    # 4. The exposition parses under the strict parser.
    text = _scrape(base_url)
    try:
        families = parse_exposition(text)
    except ExpositionError as exc:
        return _fail(f"exposition rejected: {exc}")
    print(f"serve-smoke: exposition ok "
          f"({len(families)} families, {len(text)} bytes)")

    # 5. The series the daemon must export.
    latency = families.get("repro_http_request_seconds")
    if latency is None or latency["type"] != "histogram":
        return _fail("no repro_http_request_seconds histogram")
    routes = {labels.get("route")
              for name, labels, _v in latency["samples"]
              if name.endswith("_bucket")}
    for route in ("/v1/cells", "/v1/cells/{key}/events"):
        if route not in routes:
            return _fail(f"no latency series for route {route!r} "
                         f"(saw {sorted(routes)})")
    depth = families.get("repro_lane_queue_depth")
    if depth is None or depth["type"] != "gauge":
        return _fail("no repro_lane_queue_depth gauge")
    lanes = {labels.get("lane") for _n, labels, _v in depth["samples"]}
    if lanes != {"interactive", "batch"}:
        return _fail(f"queue-depth gauges missing a lane: {lanes}")
    lookups = families.get("repro_cache_lookups_total")
    if lookups is None or lookups["type"] != "counter":
        return _fail("no repro_cache_lookups_total counter")
    outcomes = {labels.get("outcome"): value
                for _n, labels, value in lookups["samples"]}
    if outcomes.get("miss", 0) < 1:
        return _fail(f"expected >=1 cache miss, saw {outcomes}")
    executed = sum(
        value for _n, labels, value in
        families.get("repro_cells_executed_total", {"samples": []})["samples"])
    if executed != 2:
        return _fail(f"expected 2 executed cells, saw {executed}")
    print("serve-smoke: required series ok "
          f"(routes {sorted(routes)}, lanes {sorted(lanes)})")

    # 6. The trace export covers queue wait, attempt and sim run.
    names = {event["name"]
             for event in client.trace().get("traceEvents", [])
             if event.get("ph") == "X"}
    for required in ("queue.wait", "attempt", "sim.run", "http.request"):
        if required not in names:
            return _fail(f"trace export missing span {required!r} "
                         f"(saw {sorted(names)})")
    print(f"serve-smoke: trace export ok ({sorted(names)})")
    return 0


def main(argv: list[str] | None = None) -> int:
    return run_smoke()


if __name__ == "__main__":
    raise SystemExit(main())
