"""The serving workload: cell queries against a ``repro serve`` daemon.

The daemon runs as a subprocess with a temporary cache and its default
observability.  Load comes from this process only: a closed loop of one
client with no think time, so a cell never waits for the GIL behind another
one.  The cold phase asks for unique small fig1 cells, so each one is
simulated; the warm phase replays them and is answered from the cache
without simulating anything.

With tracing on, two more phases run on new cells: the same daemon answers
them with a trace id per query, and the spans give per-stage self times;
then a fresh daemon with every thread under ``cProfile`` answers them again
for the layer breakdown.  Spans never come from the profiled daemon, whose
stages the profiler slows down.

Every query has a timeout.  An error, a 429, a ``failed`` status or a
timeout is a failed operation and is never retried.  Each daemon gets
SIGINT, then SIGKILL after :data:`STOP_GRACE_S`, whatever happens.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pstats
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from repro.experiments import fig1_ssaf
from repro.obs.spans import new_trace_id
from repro.serve.client import ServeClient, ServeError
from simbench import percentile

BOOTS = 5
WARM_ROUNDS = 4
#: Cold cells per second of run time: 240 cold queries for a 20 s run.
COLD_PER_SECOND = 12
TRACED_COLD = 40
TRACED_WARM_ROUNDS = 5
#: Below the daemon's 15 s SSE keepalive, so a silent stream times out.
QUERY_TIMEOUT_S = 12.0
BOOT_TIMEOUT_S = 30.0
STOP_GRACE_S = 10.0
#: Everything, traced phase included, ends well inside the 180 s run cap.
WORKLOAD_BUDGET_S = 140.0
CELL = {"n_nodes": 30, "terrain_m": 550.0, "duration_s": 6.0,
        "n_connections": 5}
TINY_CELL = {"n_nodes": 12, "terrain_m": 350.0, "duration_s": 3.0,
             "n_connections": 2}


def cell_query(seed: int, index: int, tiny: bool) -> dict:
    """Query ``index`` of the workload; seeds are unique per (seed, index)."""
    return {"experiment": "fig1", "protocol": ("ssaf", "counter1")[index % 2],
            "x": 1.0, "seed": 10_000 * seed + index,
            "config": dict(TINY_CELL if tiny else CELL)}


class Daemon:
    """A daemon subprocess from spawn to a healthy ``/v1/healthz``."""

    def __init__(self, argv: list[str], env: dict, log_path: Path):
        self.argv, self.env, self.log_path = argv, env, log_path
        self.proc: subprocess.Popen | None = None
        self.url = ""
        self.ready_s = 0.0

    def __enter__(self) -> "Daemon":
        started = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(self.argv, stdout=subprocess.PIPE,
                                         stderr=log, text=True, env=self.env)
        try:
            self.url = self._read_url(started + BOOT_TIMEOUT_S)
            client = ServeClient(self.url, timeout_s=2.0)
            while True:
                try:
                    client.healthz()
                    break
                except (OSError, ServeError):
                    if time.perf_counter() > started + BOOT_TIMEOUT_S:
                        raise
                    time.sleep(0.005)
            self.ready_s = time.perf_counter() - started
        except BaseException:
            self.stop()
            raise
        return self

    def _read_url(self, deadline: float) -> str:
        stdout = self.proc.stdout
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([stdout], [], [],
                                        max(0.0, deadline - time.perf_counter()))
            if not ready:
                break
            line = stdout.readline()
            if not line:
                break
            if "listening on " in line:
                return line.split("listening on ", 1)[1].split()[0]
        raise RuntimeError(f"daemon did not come up; log: "
                           f"{self.log_path.read_text()[-2000:]}")

    def stop(self) -> None:
        proc = self.proc
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _ask(url: str, query: dict, trace: bool) -> dict:
    trace_id = new_trace_id() if trace else None
    client = ServeClient(url, timeout_s=QUERY_TIMEOUT_S, trace_id=trace_id)
    started = time.perf_counter()
    try:
        reply = client.run(query, timeout_s=QUERY_TIMEOUT_S)
    except ServeError as exc:
        return {"ok": False, "error": str(exc)}
    except (OSError, ValueError) as exc:  # timeouts, resets, torn replies
        return {"ok": False, "error": repr(exc)}
    latency_s = time.perf_counter() - started
    if reply.get("status") != "done":
        return {"ok": False, "error": f"status {reply.get('status')}: "
                                      f"{reply.get('error')}"}
    return {"ok": True, "latency_s": latency_s, "reply": reply,
            "trace_id": trace_id}


def closed_loop(url: str, queries: list[dict], deadline: float,
                trace: bool = False) -> tuple[list[dict], float]:
    """Every query from one client, each sent when the last one settles.
    Returns one record per query and the wall time; queries not sent
    before ``deadline`` are recorded as failed."""
    records = []
    started = time.perf_counter()
    for query in queries:
        if time.perf_counter() < deadline:
            records.append(_ask(url, query, trace))
        else:
            records.append({"ok": False, "error": "not sent before the "
                                                  "workload deadline"})
    return records, time.perf_counter() - started


def _self_times(events: list[dict]) -> dict[str, list[float]]:
    """Each span's duration minus the time its child spans cover, in ms."""
    spans = [e for e in events if e.get("ph") == "X"]
    children: dict[str, list[dict]] = {}
    for span in spans:
        parent = span["args"].get("parent_id")
        if parent:
            children.setdefault(parent, []).append(span)
    out: dict[str, list[float]] = {}
    for span in spans:
        start, end = span["ts"], span["ts"] + span["dur"]
        covered, cursor = 0.0, start
        for child in sorted(children.get(span["args"]["span_id"], []),
                            key=lambda c: c["ts"]):
            lo = max(cursor, child["ts"])
            hi = min(end, child["ts"] + child["dur"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        name = span["name"]
        if name == "http.request":
            if span["args"].get("route") != "/v1/cells":
                continue  # only the submit; SSE streams span the whole cell
        out.setdefault(name, []).append((span["dur"] - covered) / 1e3)
    return out


def _metrics_ok(result: dict) -> bool:
    metrics = result.get("metrics", {})
    return (0.0 <= metrics.get("delivery_ratio", -1.0) <= 1.0
            and metrics.get("generated", 0) > 0)


def _daemon_argv(bench_dir: Path, cache: Path, probe_out: Path,
                 profile_out: Path | None = None) -> list[str]:
    argv = [sys.executable, str(bench_dir / "daemon.py"),
            "--probe-out", str(probe_out)]
    if profile_out is not None:
        argv += ["--profile-out", str(profile_out)]
    return argv + ["--", "--port", "0", "--log-level", "off",
                   "--cache-dir", str(cache)]


def run(name: str, *, seed: int, seconds: float, trace: bool, smoke: bool,
        workdir: Path, root: Path) -> dict:
    """Run the serving workload; see ``run.py`` for the result shape."""
    deadline = time.perf_counter() + WORKLOAD_BUDGET_S
    bench_dir = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    n_cold = 4 if smoke else max(2, round(COLD_PER_SECOND * seconds))
    problems: list[str] = []
    attempted = 0

    boots = []
    for boot in range(BOOTS):
        with Daemon([sys.executable, "-m", "repro.serve", "--port", "0",
                     "--log-level", "off", "--cache-dir",
                     str(workdir / "boot-cache")],
                    env, workdir / f"boot{boot}.log") as daemon:
            boots.append(daemon.ready_s)
    attempted += BOOTS

    warmup = cell_query(seed, 0, smoke)
    cold_queries = [cell_query(seed, i, smoke) for i in range(1, n_cold + 1)]
    traced_queries = [cell_query(seed, i, smoke) for i in range(
        n_cold + 1, n_cold + 1 + (2 if smoke else TRACED_COLD))]
    probe_out = workdir / "probe.json"
    with Daemon(_daemon_argv(bench_dir, workdir / "cache", probe_out), env,
                workdir / "daemon.log") as daemon:
        first = _ask(daemon.url, warmup, trace=False)
        cold, cold_wall = closed_loop(daemon.url, cold_queries, deadline)
        warm, warm_wall = closed_loop(daemon.url, cold_queries * WARM_ROUNDS,
                                      deadline)
        stats = ServeClient(daemon.url, timeout_s=QUERY_TIMEOUT_S).stats()
        if trace:
            span_metrics, traced_records = _span_phase(daemon.url,
                                                       traced_queries,
                                                       deadline, problems)
    probe = json.loads(probe_out.read_text())
    events_by_seed = dict(probe["cells"])

    # The daemon's answer must be the result a local run gives.
    attempted += 1
    base = fig1_ssaf.campaign_spec().config
    local = fig1_ssaf.run_one(warmup["protocol"], warmup["x"], warmup["seed"],
                              dataclasses.replace(base, **warmup["config"]))
    if not first["ok"]:
        problems.append(f"warm-up query: {first['error']}")
    elif first["reply"]["result"]["metrics"] != local.metrics:
        problems.append("warm-up query: daemon result differs from a local "
                        "run of the same cell")

    attempted += len(cold) + len(warm)
    cold_results = {}
    for query, record in zip(cold_queries, cold):
        label = f"cold seed {query['seed']}"
        if not record["ok"]:
            problems.append(f"{label}: {record['error']}")
            continue
        result = record["reply"]["result"]
        cold_results[query["seed"]] = result["metrics"]
        if not _metrics_ok(result):
            problems.append(f"{label}: implausible result {result['metrics']}")
        if events_by_seed.get(query["seed"], 0) <= 0:
            problems.append(f"{label}: daemon dispatched no events")
    for query, record in zip(cold_queries * WARM_ROUNDS, warm):
        label = f"warm seed {query['seed']}"
        if not record["ok"]:
            problems.append(f"{label}: {record['error']}")
        elif record["reply"].get("source") != "cache":
            problems.append(f"{label}: answered from {record['reply'].get('source')}")
        elif record["reply"]["result"]["metrics"] != cold_results.get(query["seed"]):
            problems.append(f"{label}: result differs from the cold answer")
    executed = stats["scheduler"]["executed"]
    if executed != n_cold + 1:
        problems.append(f"daemon executed {executed} cells, expected "
                        f"{n_cold + 1}")

    cold_lat = [r["latency_s"] for r in cold if r["ok"]]
    warm_lat = [r["latency_s"] for r in warm if r["ok"]]
    if not cold_lat or not warm_lat:
        raise RuntimeError("no query succeeded: " + "; ".join(problems[:5]))
    cold_events = sum(events_by_seed.get(q["seed"], 0) for q in cold_queries)
    cold_cells = [[events_by_seed.get(q["seed"], 0), r["latency_s"]]
                  for q, r in zip(cold_queries, cold) if r["ok"]]
    result = {
        "attempted": attempted,
        "problems": problems,
        "end_to_end": {
            # Per query, as its client saw it; the median shrugs off the
            # few queries a busy host slowed down.
            "events_per_s": statistics.median(events / latency_s
                                              for events, latency_s
                                              in cold_cells),
            "setup_s": statistics.median(boots),
            "peak_rss_mb": probe["peak_rss_mb"],
        },
        "samples": {"boots": len(boots), "cold_queries": len(cold_lat),
                    "warm_queries": len(warm_lat)},
        "extra": {
            "sweep_s": cold_wall,
            "cold_query_s_p50": statistics.median(cold_lat),
            "cold_query_s_p90": percentile(cold_lat, 90),
            "cold_queries_per_s": len(cold_lat) / cold_wall,
            "warm_query_ms_p50": statistics.median(warm_lat) * 1e3,
            "warm_query_ms_p95": percentile(warm_lat, 95) * 1e3,
            "warm_queries_per_s": len(warm_lat) / warm_wall,
            "boots_s": boots,
            "cold_events_latency_s": cold_cells,
        },
    }
    if not trace:
        return result

    per_layer, profiled_cold_s_p50, profiled_records = _profiled_phase(
        traced_queries, seed, smoke, env, bench_dir, workdir, deadline,
        problems)
    result["attempted"] += len(traced_records) + len(profiled_records)
    result["samples"].update(traced_queries=len(traced_records),
                             profiled_queries=len(profiled_records))
    cold_metrics = [r["reply"]["result"]["metrics"] for r in cold if r["ok"]]
    generated = sum(m["generated"] for m in cold_metrics)
    delivered = sum(m["delivered"] for m in cold_metrics)
    tx = sum(m["mac_packets"] for m in cold_metrics)
    per_layer.update(span_metrics)
    per_layer.update({
        "trace_overhead": profiled_cold_s_p50 / statistics.median(cold_lat),
        "sim.events": cold_events,
        "phy.tx": tx,
        "app.generated": generated,
        "app.delivered": delivered,
        "app.delivery_ratio": delivered / max(1, generated),
        "net.tx_per_delivered": tx / max(1, delivered),
        "campaign.overhead_s": sum(
            r["latency_s"] - r["reply"]["telemetry"]["wall_s"]
            for r in cold if r["ok"]),
        "serve.executed": executed,
        "serve.warm_answers": stats["requests"]["warm_answers"],
        "serve.dedup_joined": stats["requests"]["dedup_joined"],
        "serve.rejected": stats["requests"]["rejected"],
    })
    result["per_layer"] = per_layer
    return result


def _span_phase(url: str, queries: list[dict], deadline: float,
                problems: list[str]) -> tuple[dict, list[dict]]:
    """New cold cells, then warm replays of them, each query with its own
    trace id; span self times come from ``GET /v1/traces/{id}``."""
    cold, _ = closed_loop(url, queries, deadline, trace=True)
    warm, _ = closed_loop(url, queries * TRACED_WARM_ROUNDS, deadline,
                          trace=True)
    spans: dict[str, list[float]] = {}
    client = ServeClient(url, timeout_s=QUERY_TIMEOUT_S)
    for record in cold + warm:
        if not record["ok"]:
            problems.append(f"traced query: {record['error']}")
            continue
        try:
            events = client.trace(record["trace_id"])["traceEvents"]
        except (ServeError, OSError, ValueError) as exc:
            problems.append(f"trace {record['trace_id']}: {exc!r}")
            continue
        for name, values in _self_times(events).items():
            spans.setdefault(name, []).extend(values)

    def p(name: str, pct: int) -> float:
        values = spans.get(name)
        if not values:
            problems.append(f"no {name} spans recorded")
            return 0.0
        return percentile(values, pct)

    return {
        "serve.http_ms_p50": p("http.request", 50),
        "serve.queue_wait_ms_p50": p("queue.wait", 50),
        "serve.queue_wait_ms_p90": p("queue.wait", 90),
        "campaign.execute_self_ms_p50": p("execute", 50),
        "obs.attempt_self_ms_p50": p("attempt", 50),
        "experiments.sim_run_ms_p50": p("sim.run", 50),
    }, cold + warm


def _profiled_phase(queries: list[dict], seed: int, smoke: bool, env: dict,
                    bench_dir: Path, workdir: Path, deadline: float,
                    problems: list[str]) -> tuple[dict, float, list[dict]]:
    """The same cells, cold then warm, on a fresh daemon whose every thread
    runs under ``cProfile``; returns the layer groups and the cold p50."""
    profile_out = workdir / "daemon.prof"
    with Daemon(_daemon_argv(bench_dir, workdir / "profiled-cache",
                             workdir / "profiled-probe.json", profile_out),
                env, workdir / "profiled.log") as daemon:
        first = _ask(daemon.url, cell_query(seed, 0, smoke), trace=False)
        cold, _ = closed_loop(daemon.url, queries, deadline)
        warm, _ = closed_loop(daemon.url, queries * TRACED_WARM_ROUNDS,
                              deadline)
    records = [first] + cold + warm
    problems += [f"profiled query: {r['error']}" for r in records
                 if not r["ok"]]
    per_layer = layers.attribute(pstats.Stats(str(profile_out)).stats)
    cold_s = [r["latency_s"] for r in cold if r["ok"]]
    return per_layer, statistics.median(cold_s or [0.0]), records
