"""The three simulation workloads: sweeps of experiment cells.

Every pass runs the workload's cells through ``run_spec(spec, workers=1)``
with a fresh result cache and campaign directory, so no pass is served from
cache.  Passes repeat until the run's time is used up (at least
:data:`MIN_PASSES`); end-to-end numbers are medians over passes.  Warm
replays then re-request the same cells from the last pass's cache.  With
tracing on, one more pass runs under ``cProfile`` for the layer breakdown.

Every cell is checked: a sane delivery ratio, traffic generated, events
dispatched, and identical (events, tx, delivered, generated) in every pass,
the traced one included.  With seed 1 the fig1 interval-1.0 cells must also
match the golden constants pinned in the tier-1 suite.
"""

from __future__ import annotations

import ast
import cProfile
import dataclasses
import pstats
import resource
import statistics
import time
from pathlib import Path
from typing import Callable

import layers
from probe import CellProbe
from repro.campaign import run_spec
from repro.experiments import ext_mobility, ext_scaling, ext_uav, fig1_ssaf
from repro.experiments import fig3_rr_vs_aodv, fig4_failures

MIN_PASSES = 4
#: Warm replays of the whole sweep; p95 then has 10 samples beyond it.
WARM_REPLAYS = 200
SMOKE_WARM_REPLAYS = 20
GOLDEN_FILE = Path("tests/experiments/test_golden_equivalence.py")
#: Cell counts compared across passes: a difference is a behaviour change.
DETERMINISTIC = ("events", "tx", "delivered", "generated")
#: Layer metrics taken from the daemon's spans and stats; a sweep never
#: enters the daemon, so they read 0 here.
SERVE_ONLY = ("serve.http_ms_p50", "serve.queue_wait_ms_p50",
              "serve.queue_wait_ms_p90", "campaign.execute_self_ms_p50",
              "obs.attempt_self_ms_p50", "experiments.sim_run_ms_p50",
              "serve.executed", "serve.warm_answers", "serve.dedup_joined",
              "serve.rejected")


def _flood_fig1(seed: int, tiny: bool) -> list:
    if tiny:
        config = fig1_ssaf.Fig1Config(
            n_nodes=12, terrain_m=350.0, n_connections=2, duration_s=3.0,
            intervals_s=(1.0,), seeds=(seed,), protocols=("ssaf",))
    else:
        # Interval 0.5 keeps the MAC queues busy; 1.0 is the golden cell.
        config = fig1_ssaf.Fig1Config(intervals_s=(0.5, 1.0), seeds=(seed,))
    return [fig1_ssaf.campaign_spec(config)]


def _routeless_fig4(seed: int, tiny: bool) -> list:
    if tiny:
        config = fig4_failures.Fig4Config(
            base=fig3_rr_vs_aodv.Fig3Config(n_nodes=20, terrain_m=400.0,
                                            duration_s=5.0),
            n_pairs=1, failure_fractions=(0.10,), seeds=(seed,),
            protocols=("routeless",))
    else:
        config = fig4_failures.Fig4Config(
            base=fig3_rr_vs_aodv.Fig3Config(duration_s=20.0),
            failure_fractions=(0.0, 0.10), seeds=(seed,))
    return [fig4_failures.campaign_spec(config)]


def _mobility_linkbudget(seed: int, tiny: bool) -> list:
    if tiny:
        mobility = ext_mobility.MobilityExpConfig(
            n_nodes=20, terrain_m=400.0, n_pairs=1, duration_s=5.0,
            max_speeds_mps=(20.0,), seeds=(seed,), protocols=("routeless",))
        uav = ext_uav.UavConfig(
            n_nodes=15, terrain_m=400.0, depth_m=100.0, n_pairs=1,
            duration_s=5.0, alphas=(0.85,), seeds=(seed,), protocols=("ssaf",))
        scaling = ext_scaling.ScalingConfig(
            node_counts=(30,), n_pairs=1, duration_s=5.0, seeds=(seed,),
            protocols=("counter1",))
    else:
        mobility = ext_mobility.MobilityExpConfig(
            duration_s=15.0, max_speeds_mps=(20.0,), seeds=(seed,),
            protocols=("aodv", "routeless"))
        uav = ext_uav.UavConfig(alphas=(0.85,), seeds=(seed,),
                                protocols=("ssaf",))
        scaling = dataclasses.replace(ext_scaling.ScalingConfig.large(),
                                      node_counts=(2000,), duration_s=8.0,
                                      seeds=(seed,))
    return [ext_mobility.campaign_spec(mobility), ext_uav.campaign_spec(uav),
            ext_scaling.campaign_spec(scaling)]


#: workload -> (seed, tiny) -> campaign specs of one pass.
WORKLOADS: dict[str, Callable[[int, bool], list]] = {
    "flood_fig1": _flood_fig1,
    "routeless_fig4": _routeless_fig4,
    "mobility_linkbudget": _mobility_linkbudget,
}


def load_golden(root: Path) -> dict:
    """``GOLDEN`` from the tier-1 golden test, read without importing it."""
    tree = ast.parse((root / GOLDEN_FILE).read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "GOLDEN"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise ValueError(f"no GOLDEN assignment in {GOLDEN_FILE}")


def check_cells(rows: list[dict]) -> list[str]:
    """Sanity of every cell's output."""
    problems = []
    for row in rows:
        if not 0.0 <= row["delivery_ratio"] <= 1.0:
            problems.append(f"{row['cell']}: delivery ratio "
                            f"{row['delivery_ratio']}")
        if row["generated"] <= 0:
            problems.append(f"{row['cell']}: no traffic generated")
        if row["events"] <= 0:
            problems.append(f"{row['cell']}: no events dispatched")
    return problems


def check_determinism(passes: list[list[dict]]) -> list[str]:
    """Cells whose deterministic counts differ between passes."""
    reference = {row["cell"]: row for row in passes[0]}
    problems = []
    for index, rows in enumerate(passes[1:], start=1):
        cells = {row["cell"]: row for row in rows}
        if cells.keys() != reference.keys():
            problems.append(f"pass {index} ran cells {sorted(cells)}, "
                            f"pass 0 ran {sorted(reference)}")
            continue
        for cell, row in cells.items():
            first = tuple(reference[cell][k] for k in DETERMINISTIC)
            again = tuple(row[k] for k in DETERMINISTIC)
            if first != again:
                problems.append(f"{cell}: {DETERMINISTIC} = {first} in pass "
                                f"0 but {again} in pass {index}")
    return problems


def check_golden(rows: list[dict], golden: dict) -> list[str]:
    """The fig1 interval-1.0 seed-1 cells against the pinned constants."""
    problems = []
    for (protocol, seed), expected in sorted(golden.items()):
        if seed != 1:
            continue
        cell = f"{protocol}/x=1/seed=1"
        row = next((r for r in rows if r["cell"] == cell), None)
        got = None if row is None else tuple(row[k] for k in DETERMINISTIC)
        if got != tuple(expected[:4]):
            problems.append(f"{cell}: {DETERMINISTIC} = {got}, golden "
                            f"{tuple(expected[:4])}")
    return problems


def _sweep(specs: list, probe: CellProbe, workdir: Path, tag: str) -> dict:
    """One pass over every cell with a fresh cache and campaign dirs."""
    first_row = len(probe.rows)
    cache_dir = workdir / f"{tag}-cache"
    started = time.perf_counter()
    outcomes = [run_spec(dataclasses.replace(spec,
                                             run_one=probe.timed(spec.run_one)),
                         workers=1, cache_dir=cache_dir,
                         campaign_dir=workdir / f"{tag}-{spec.name}")
                for spec in specs]
    wall_s = time.perf_counter() - started
    quarantined = [f"{spec.name} {failure.cell.protocol}/x={failure.cell.x:g}"
                   f"/seed={failure.cell.seed}: {failure.error}"
                   for spec, outcome in zip(specs, outcomes)
                   for failure in outcome.quarantined]
    return {"wall_s": wall_s, "rows": probe.rows[first_row:],
            "quarantined": quarantined, "cache_dir": cache_dir,
            "outcomes": outcomes}


def _warm_replays(specs: list, last: dict, replays: int) -> tuple[list, list]:
    """Per-cell latency of answering the sweep from the warm cache."""
    cold = {key: record.summary.metrics
            for outcome in last["outcomes"]
            for key, record in outcome.records.items()}
    samples, problems = [], []
    for _ in range(replays):
        started = time.perf_counter()
        outcomes = [run_spec(spec, workers=1, cache_dir=last["cache_dir"])
                    for spec in specs]
        elapsed = time.perf_counter() - started
        records = [r for outcome in outcomes for r in outcome.records.values()]
        samples.append(elapsed / len(records))
        for record in records:
            if record.source != "cache" or record.summary is None \
                    or record.summary.metrics != cold.get(record.key):
                problems.append(f"warm replay of {record.protocol}"
                                f"/x={record.x:g}/seed={record.seed}: source "
                                f"{record.source}, result differs from cold")
    return samples, problems


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _totals(rows: list[dict]) -> dict:
    return {k: sum(row[k] for row in rows)
            for k in ("events", "tx", "delivered", "generated", "setup_s",
                      "wall_s")}


def run(name: str, *, seed: int, seconds: float, trace: bool, smoke: bool,
        workdir: Path, root: Path) -> dict:
    """Run one simulation workload; see ``run.py`` for the result shape."""
    build = WORKLOADS[name]
    specs = build(seed, smoke)
    problems: list[str] = []
    attempted = 0
    with CellProbe() as probe:
        _sweep(build(seed, True), probe, workdir, "warmup")

        started = time.perf_counter()
        passes: list[dict] = []
        while len(passes) < MIN_PASSES or (
                time.perf_counter() - started
                + statistics.mean(p["wall_s"] for p in passes) <= seconds):
            passes.append(_sweep(specs, probe, workdir, f"pass{len(passes)}"))
        warm, warm_problems = _warm_replays(
            specs, passes[-1], SMOKE_WARM_REPLAYS if smoke else WARM_REPLAYS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        traced = None
        if trace:
            profiler = cProfile.Profile()
            profiler.enable()
            try:
                traced = _sweep(specs, probe, workdir, "traced")
            finally:
                profiler.disable()

    for sweep in passes + ([traced] if traced else []):
        attempted += len(sweep["rows"]) + len(sweep["quarantined"])
        problems += sweep["quarantined"] + check_cells(sweep["rows"])
    attempted += len(warm) * len(passes[-1]["rows"])
    problems += warm_problems
    problems += check_determinism([p["rows"] for p in passes]
                                  + ([traced["rows"]] if traced else []))
    if name == "flood_fig1" and seed == 1 and not smoke:
        problems += check_golden(passes[0]["rows"], load_golden(root))

    totals = [_totals(p["rows"]) for p in passes]
    pass_walls = [p["wall_s"] for p in passes]
    sweep_s = statistics.median(pass_walls)
    rates: dict[str, list[float]] = {}
    for p in passes:
        for row in p["rows"]:
            rates.setdefault(row["cell"], []).append(row["events"] / row["run_s"])
    result = {
        "attempted": attempted,
        "problems": problems,
        "end_to_end": {
            # Each cell's median rate over passes, then every cell counts
            # once, whatever its size: the seed changes how many events a
            # cell has, not which code it runs.
            "events_per_s": statistics.geometric_mean(
                statistics.median(r) for r in rates.values()),
            "setup_s": statistics.median(t["setup_s"] for t in totals),
            "peak_rss_mb": peak_rss_mb,
        },
        "samples": {"passes": len(passes), "cells_per_pass":
                    len(passes[0]["rows"]), "warm_replays": len(warm)},
        "extra": {"sweep_s": sweep_s,
                  "warm_query_ms_p50": statistics.median(warm) * 1e3,
                  "warm_query_ms_p95": percentile(warm, 95) * 1e3,
                  "pass_walls_s": pass_walls,
                  "cell_events_per_s": rates, "cells": passes[0]["rows"]},
    }
    if traced is not None:
        first = totals[0]
        per_layer = layers.attribute(pstats.Stats(profiler).stats)
        per_layer.update({
            "trace_overhead": traced["wall_s"] / sweep_s,
            "sim.events": first["events"],
            "phy.tx": first["tx"],
            "app.generated": first["generated"],
            "app.delivered": first["delivered"],
            "app.delivery_ratio": first["delivered"] / max(1, first["generated"]),
            "net.tx_per_delivered": first["tx"] / max(1, first["delivered"]),
            "campaign.overhead_s": statistics.median(
                p["wall_s"] - t["wall_s"] for t, p in zip(totals, passes)),
        })
        per_layer.update(dict.fromkeys(SERVE_ONLY, 0))
        result["per_layer"] = per_layer
    return result
