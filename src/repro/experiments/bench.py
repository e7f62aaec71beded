"""The ``bench`` CLI: kernel/channel microbenchmarks + a fig1 smoke cell
(bare and observed), with snapshot comparison so hot-path regressions fail
loudly.

::

    python -m repro.experiments bench                    # run, compare, write
    python -m repro.experiments bench --quick            # fewer repeats (CI)
    python -m repro.experiments bench --threshold 0.30   # regression budget
    python -m repro.experiments bench --no-compare       # refresh the snapshot

Each benchmark is timed as best-of-``repeats`` wall clock (the minimum is
the least noisy estimator of the achievable time on a shared machine) and
recorded with op/s and — where the operation drains a simulator —
events/sec.  Results are written to ``BENCH_kernel.json`` together with
machine metadata; the previous snapshot, if any, is the regression baseline.
A benchmark regresses when its wall time exceeds the baseline by more than
``--threshold`` (default 30%, tolerant of runner-to-runner noise in CI).
The committed snapshot is the performance trajectory of the repo: refresh
it (``--no-compare``, then commit) whenever a PR legitimately shifts the
numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Callable

__all__ = ["main", "collect", "compare", "fingerprint", "load_baseline",
           "DEFAULT_SNAPSHOT", "DEFAULT_THRESHOLD"]

DEFAULT_SNAPSHOT = "BENCH_kernel.json"
DEFAULT_THRESHOLD = 0.30
SCHEMA_VERSION = 1


# ------------------------------------------------------------- benchmarks


def _bench_event_loop(n: int = 10_000) -> dict:
    """Schedule-and-fire ``n`` chained events (the kernel's tight loop)."""
    from repro.sim.engine import Simulator

    sim = Simulator()

    def chain(k: int) -> None:
        if k:
            sim.schedule(0.001, chain, k - 1)

    sim.schedule(0.0, chain, n)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    assert sim.events_processed == n + 1
    return {"wall_s": wall, "ops": n + 1, "events": sim.events_processed}


def _bench_cancellation_storm(n: int = 10_000) -> dict:
    """Arm ``n`` timers, cancel 90% — the election workload's signature."""
    from repro.sim.engine import Simulator

    sim = Simulator()
    fired: list[int] = []
    t0 = time.perf_counter()
    handles = [sim.schedule(1.0 + i * 1e-6, fired.append, i) for i in range(n)]
    for i, handle in enumerate(handles):
        if i % 10:
            handle.cancel()
    sim.run()
    wall = time.perf_counter() - t0
    assert len(fired) == n // 10
    return {"wall_s": wall, "ops": n, "events": sim.events_processed}


def _bench_channel_fanout(n_nodes: int = 80, transmits: int = 50) -> dict:
    """Repeated one-to-many broadcast delivery through the channel."""
    import numpy as np

    from repro.mac.frame import Frame
    from repro.phy.channel import Channel
    from repro.phy.propagation import FreeSpace, range_to_threshold_dbm
    from repro.phy.radio import RadioConfig, Transceiver
    from repro.sim.components import SimContext

    ctx = SimContext()
    rng = np.random.default_rng(0)
    positions = rng.uniform(0, 300, size=(n_nodes, 2))
    model = FreeSpace()
    threshold = range_to_threshold_dbm(model, 15.0, 250.0)
    config = RadioConfig(tx_power_dbm=15.0, rx_threshold_dbm=threshold)
    channel = Channel(ctx, positions, model, 15.0, config.cs_threshold_dbm)
    radios = [Transceiver(ctx, i, channel, config) for i in range(n_nodes)]
    frame = Frame(src=0, dst=None, seq=0, payload=None, size_bytes=100)

    t0 = time.perf_counter()
    for _ in range(transmits):
        radios[0].transmit(frame, 0.001)
        ctx.simulator.run()
    wall = time.perf_counter() - t0
    assert channel.tx_count == transmits
    return {"wall_s": wall, "ops": transmits,
            "events": ctx.simulator.events_processed}


#: Events the fig1 smoke cell fires, observed or not.
FIG1_CELL_EVENTS = 158_582


def _bench_fig1_cell(observe: bool = False) -> dict:
    """One end-to-end fig1 cell (SSAF, 1 s interval, seed 1) — the
    wall-clock proxy for whole figure sweeps.  ``observe`` attaches a fresh
    :class:`~repro.obs.observe.Observability` and takes its snapshot
    inside the timed region, so the ratio to the unobserved cell is the
    cost of observation."""
    from repro.experiments.common import (
        ScenarioConfig,
        attach_cbr,
        build_protocol_network,
        pick_flows,
    )
    from repro.experiments.fig1_ssaf import Fig1Config
    from repro.obs.observe import Observability
    from repro.sim.rng import RandomStreams

    config = Fig1Config()
    seed = 1
    obs = Observability() if observe else None
    t0 = time.perf_counter()
    scenario = ScenarioConfig(
        n_nodes=config.n_nodes, width_m=config.terrain_m,
        height_m=config.terrain_m, range_m=config.range_m, seed=seed)
    net = build_protocol_network("ssaf", scenario, obs=obs)
    flows = pick_flows(config.n_nodes, config.n_connections,
                       RandomStreams(seed + 7777).stream("fig1.flows"),
                       distinct_endpoints=False)
    attach_cbr(net, flows, interval_s=1.0, stop_s=config.duration_s - 2.0)
    net.run(until=config.duration_s)
    if obs is not None:
        obs.snapshot()
    wall = time.perf_counter() - t0
    events = net.simulator.events_processed
    assert events == FIG1_CELL_EVENTS, events
    return {"wall_s": wall, "ops": 1, "events": events}


def _channel_2k(n_nodes: int = 2000, depth_m: float | None = None):
    """A 2k-node channel at the paper's Figure 3 density (untimed setup
    shared by the n=2000 benchmarks).  ``depth_m`` adds a z axis — the
    3-D benchmarks share everything but the extra coordinate."""
    import math

    import numpy as np

    from repro.phy.channel import Channel
    from repro.phy.propagation import FreeSpace, range_to_threshold_dbm
    from repro.sim.components import SimContext

    ctx = SimContext()
    rng = np.random.default_rng(0)
    terrain = math.sqrt(n_nodes / 125e-6)  # Figure 3 density
    positions = rng.uniform(0, terrain, size=(n_nodes, 2))
    if depth_m is not None:
        altitudes = rng.uniform(0, depth_m, size=(n_nodes, 1))
        positions = np.hstack([positions, altitudes])
    model = FreeSpace()
    threshold = range_to_threshold_dbm(model, 15.0, 250.0)
    channel = Channel(ctx, positions, model, 15.0, threshold)
    return ctx, channel, positions, rng


def _bench_sparse_fanout(transmits: int = 50) -> dict:
    """Broadcast delivery through the 2k-node link budget — the transmit
    hot path must stay an indexed row lookup however large the network."""
    from repro.mac.frame import Frame
    from repro.phy.radio import RadioConfig, Transceiver

    ctx, channel, _positions, _rng = _channel_2k()
    config = RadioConfig(tx_power_dbm=15.0,
                         rx_threshold_dbm=channel.reach_threshold_dbm)
    radios = [Transceiver(ctx, i, channel, config)
              for i in range(channel.n_nodes)]
    assert radios
    frame = Frame(src=0, dst=None, seq=0, payload=None, size_bytes=100)

    t0 = time.perf_counter()
    for _ in range(transmits):
        radios[0].transmit(frame, 0.001)
        ctx.simulator.run()
    wall = time.perf_counter() - t0
    assert channel.tx_count == transmits
    return {"wall_s": wall, "ops": transmits,
            "events": ctx.simulator.events_processed}


def _bench_sparse_fanout_3d(transmits: int = 50) -> dict:
    """Broadcast delivery through the link budget at n=2000 with a
    200 m altitude axis — the 27-cell 3-D grid neighborhood vs the 2-D
    benchmark's 9-cell one."""
    from repro.mac.frame import Frame
    from repro.phy.radio import RadioConfig, Transceiver

    ctx, channel, _positions, _rng = _channel_2k(depth_m=200.0)
    config = RadioConfig(tx_power_dbm=15.0,
                         rx_threshold_dbm=channel.reach_threshold_dbm)
    radios = [Transceiver(ctx, i, channel, config)
              for i in range(channel.n_nodes)]
    frame = Frame(src=0, dst=None, seq=0, payload=None, size_bytes=100)

    t0 = time.perf_counter()
    for _ in range(transmits):
        radios[0].transmit(frame, 0.001)
        ctx.simulator.run()
    wall = time.perf_counter() - t0
    assert channel.tx_count == transmits
    return {"wall_s": wall, "ops": transmits,
            "events": ctx.simulator.events_processed}


def _bench_mobility_tick(ticks: int = 5) -> dict:
    """A full mobility tick at n=2000: every node drifts one tick's worth
    (~2.5 m) through ``move_nodes`` on the grid-indexed path."""
    _ctx, channel, positions, rng = _channel_2k()
    ids = None
    t0 = time.perf_counter()
    for _ in range(ticks):
        if ids is None:
            import numpy as np
            ids = np.arange(channel.n_nodes)
        positions = positions + rng.uniform(-2.5, 2.5,
                                            size=positions.shape)
        channel.move_nodes(ids, positions)
        ops_guard = channel.reach[0]  # noqa: F841 - keep the result live
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "ops": ticks, "events": 0}


def _bench_mobility_tick_uav60(ticks: int = 40) -> dict:
    """Mobility ticks on the default UAV cell's geometry: 60 nodes in
    900×900×200 m at the carrier-sense reach, the 6 traffic endpoints
    frozen, the other 54 drifting ~3 m per tick through ``move_nodes``.
    The grid is small enough that every cell neighbors every other, so
    each tick is one all-pairs rebuild — the other side of the small-grid
    rule from ``mobility_tick_2k``."""
    import numpy as np

    from repro.experiments.common import ScenarioConfig
    from repro.phy.channel import Channel
    from repro.sim.components import SimContext

    scenario = ScenarioConfig(n_nodes=60, width_m=900.0, height_m=900.0,
                              depth_m=200.0, range_m=250.0)
    arena = scenario.arena
    rng = np.random.default_rng(0)
    positions = arena.sample(rng, scenario.n_nodes)
    channel = Channel(SimContext(), positions, scenario.propagation,
                      scenario.tx_power_dbm,
                      scenario.radio_config().cs_threshold_dbm)
    ids = np.arange(6, scenario.n_nodes)
    t0 = time.perf_counter()
    for _ in range(ticks):
        positions[ids] = arena.clamp(
            positions[ids] + rng.uniform(-3.0, 3.0, size=(len(ids), 3)))
        channel.move_nodes(ids, positions[ids])
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "ops": ticks, "events": 0}


#: name -> (callable, repeats at full scale, repeats at --quick)
#: The n=2000 benchmarks keep their full problem size in --quick mode (only
#: the repeat count drops) so the CI gate compares like against like.
BENCHMARKS: dict[str, tuple[Callable[[], dict], int, int]] = {
    "event_loop_throughput": (_bench_event_loop, 7, 3),
    "timer_cancellation_storm": (_bench_cancellation_storm, 7, 3),
    "channel_fanout": (_bench_channel_fanout, 7, 3),
    "fig1_smoke_cell": (_bench_fig1_cell, 3, 2),
    "fig1_smoke_cell_observed": (lambda: _bench_fig1_cell(observe=True), 3, 2),
    "sparse_fanout_2k": (_bench_sparse_fanout, 5, 2),
    "sparse_fanout_3d_2k": (_bench_sparse_fanout_3d, 5, 2),
    "mobility_tick_2k": (_bench_mobility_tick, 5, 2),
    "mobility_tick_uav60": (_bench_mobility_tick_uav60, 7, 3),
}


# ------------------------------------------------------------- collection


def _machine_meta() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor() or None,
        "cpu_count": os.cpu_count(),
        "hostname": platform.node(),
    }


def collect(quick: bool = False) -> dict:
    """Run every benchmark (best of k repeats) and return the snapshot."""
    results = {}
    for name, (fn, repeats, quick_repeats) in BENCHMARKS.items():
        k = quick_repeats if quick else repeats
        best: dict | None = None
        for _ in range(k):
            sample = fn()
            if best is None or sample["wall_s"] < best["wall_s"]:
                best = sample
        assert best is not None
        wall = best["wall_s"]
        results[name] = {
            "wall_s": round(wall, 6),
            "ops_per_s": round(best["ops"] / wall, 1) if wall > 0 else None,
            "events_per_s": (round(best["events"] / wall, 1)
                             if wall > 0 else None),
            "events": best["events"],
            "repeats": k,
        }
    return {
        "schema": SCHEMA_VERSION,
        "unix_time": round(time.time(), 1),
        "quick": quick,
        "machine": _machine_meta(),
        "benchmarks": results,
    }


def fingerprint(meta: dict) -> tuple:
    """What must match for wall times to be comparable across snapshots.

    Interpreter implementation and CPU architecture change the numbers
    wholesale; hostname and Python patch version don't, so CI runners with
    rotating names still share a fingerprint.
    """
    return (meta.get("implementation"), meta.get("machine"),
            meta.get("processor"))


class BaselineError(Exception):
    """A baseline snapshot that can't be used (missing, corrupt, or from a
    different machine) — reported as a clear CLI message, never a traceback."""


def load_baseline(path: str, *, require: bool,
                  ignore_fingerprint: bool = False,
                  current_meta: dict | None = None) -> dict | None:
    """Read and vet a baseline snapshot.

    Returns ``None`` when the file is absent and ``require`` is False (the
    implicit-compare default: a fresh snapshot will be written).  Raises
    :class:`BaselineError` when the baseline is explicitly required but
    missing, is not valid JSON, or was recorded on a machine with a
    different :func:`fingerprint`.
    """
    if not os.path.exists(path):
        if require:
            raise BaselineError(
                f"no benchmark baseline at {path!r} — run "
                "'python -m repro.experiments bench --no-compare' once to "
                "create one, or pass --baseline PATH")
        return None
    try:
        with open(path) as fh:
            baseline = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BaselineError(
            f"baseline {path!r} is not valid JSON ({exc}) — delete it or "
            "regenerate with --no-compare")
    if not isinstance(baseline, dict) or "benchmarks" not in baseline:
        raise BaselineError(
            f"baseline {path!r} is not a bench snapshot (no 'benchmarks' "
            "key) — regenerate with --no-compare")
    meta = baseline.get("machine")
    if not ignore_fingerprint and current_meta is not None and meta:
        theirs = fingerprint(meta)
        ours = fingerprint(current_meta)
        if theirs != ours:
            raise BaselineError(
                f"baseline {path!r} was recorded on a different machine "
                f"(baseline fingerprint {theirs}, this machine {ours}) — "
                "wall-time comparison would be meaningless; pass "
                "--ignore-fingerprint to compare anyway or --no-compare to "
                "re-baseline here")
    return baseline


def compare(current: dict, baseline: dict, threshold: float) -> list[str]:
    """Regression report: benchmarks slower than baseline by > threshold.

    Benchmarks present on only one side are reported informationally by the
    caller, never as regressions.
    """
    regressions = []
    base_benchmarks = baseline.get("benchmarks", {})
    for name, entry in current.get("benchmarks", {}).items():
        base = base_benchmarks.get(name)
        if base is None or not base.get("wall_s"):
            continue
        ratio = entry["wall_s"] / base["wall_s"]
        if ratio > 1.0 + threshold:
            regressions.append(
                f"{name}: {entry['wall_s'] * 1e3:.2f} ms vs baseline "
                f"{base['wall_s'] * 1e3:.2f} ms ({ratio:.2f}x, budget "
                f"{1.0 + threshold:.2f}x)")
    return regressions


# -------------------------------------------------------------------- CLI


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments bench",
        description="Run the hot-path benchmarks and compare against the "
                    "committed snapshot.")
    parser.add_argument("--output", metavar="PATH", default=DEFAULT_SNAPSHOT,
                        help=f"snapshot file to write (default {DEFAULT_SNAPSHOT})")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="snapshot to compare against (default: the "
                             "existing --output file)")
    parser.add_argument("--threshold", type=float, default=None,
                        metavar="FRAC",
                        help="fail when a benchmark is slower than baseline "
                             f"by more than FRAC (default {DEFAULT_THRESHOLD}); "
                             "passing this makes a usable baseline mandatory")
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats per benchmark (CI mode)")
    parser.add_argument("--ignore-fingerprint", action="store_true",
                        help="compare even when the baseline was recorded on "
                             "a machine with a different fingerprint")
    parser.add_argument("--no-compare", action="store_true",
                        help="skip the regression check, just measure and write")
    parser.add_argument("--no-write", action="store_true",
                        help="measure and compare without rewriting the snapshot")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    baseline_path = args.baseline if args.baseline is not None else args.output
    # Comparison was asked for by name (not just defaulted into): a missing
    # or unusable baseline is then an error, not a silent fresh-snapshot.
    explicit_compare = (args.threshold is not None
                        or args.baseline is not None)
    threshold = (args.threshold if args.threshold is not None
                 else DEFAULT_THRESHOLD)

    baseline = None
    if not args.no_compare:
        try:
            baseline = load_baseline(
                baseline_path, require=explicit_compare,
                ignore_fingerprint=args.ignore_fingerprint,
                current_meta=_machine_meta())
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    snapshot = collect(quick=args.quick)

    print(f"{'benchmark':<28} {'wall':>12} {'op/s':>14} {'events/s':>14}")
    for name, entry in snapshot["benchmarks"].items():
        events = (f"{entry['events_per_s']:>14,.0f}"
                  if entry["events_per_s"] else f"{'-':>14}")
        print(f"{name:<28} {entry['wall_s'] * 1e3:>9.2f} ms "
              f"{entry['ops_per_s']:>14,.0f} {events}")

    status = 0
    if baseline is not None:
        regressions = compare(snapshot, baseline, threshold)
        missing = set(snapshot["benchmarks"]) - set(baseline.get("benchmarks", {}))
        if missing:
            print(f"\n(no baseline for: {', '.join(sorted(missing))})")
        if regressions:
            print(f"\nREGRESSION vs {baseline_path}:", file=sys.stderr)
            for line in regressions:
                print(f"  {line}", file=sys.stderr)
            status = 1
        else:
            print(f"\nno regression vs {baseline_path} "
                  f"(threshold {threshold:.0%})")
    elif not args.no_compare:
        print(f"\nno baseline at {baseline_path}; writing a fresh snapshot")

    if not args.no_write:
        with open(args.output, "w") as fh:
            json.dump(snapshot, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
