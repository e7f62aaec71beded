"""Sweep-and-serve benchmark: end-to-end metrics and a per-layer breakdown.

One workload (what CI and regression gates run)::

    python3 bench/run.py --workload flood_fig1 --seed 1 --seconds 20 --trace 0

prints one line per metric, then, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` also runs the traced
pass and reports the per-layer metrics.

Every workload, each in its own child process, one after another::

    python3 bench/run.py --seed 1 --out result.json [--repeat N]

Two result files, one row per (workload, metric)::

    python3 bench/run.py --compare base.json change.json

The benchmark builds nothing: it imports the program from ``src/`` of the
checkout it lives in and refuses to run without it.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
WORK_DIR = ROOT / ".bench_work"
#: A workload run is sized to end well within 180 s; this is the backstop.
CHILD_TIMEOUT_S = 175.0


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and make sure the
    program comes from there, not from some installed copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {src / 'repro'}; run the "
                         "benchmark from a full checkout")
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not from {src}")


def load_spec() -> dict:
    return json.loads(SPEC_FILE.read_text())


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor() or None,
        "cpu_count": os.cpu_count(),
    }


def calibrate(repeats: int = 7, chain: int = 20_000) -> float:
    """Kernel speed of this machine: chained events per second through a
    bare simulator (the ``event_loop_throughput`` pattern), best of
    ``repeats`` so a momentarily busy core does not read as a slow machine."""
    from repro.sim.engine import Simulator

    rates = []
    for _ in range(repeats):
        sim = Simulator()

        def step(k: int) -> None:
            if k:
                sim.schedule(0.001, step, k - 1)

        sim.schedule(0.0, step, chain)
        started = time.perf_counter()
        sim.run()
        rates.append(sim.events_processed / (time.perf_counter() - started))
    return max(rates)


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """One workload in this process; returns its full record.

    A workload's ``run`` returns ``attempted`` (operations tried),
    ``problems`` (one message per failed operation or check),
    ``end_to_end`` and, when traced, ``per_layer`` (metric name -> value),
    ``samples`` (sample counts) and ``extra`` (reported, ungated numbers and
    per-cell detail)."""
    import servebench
    import simbench

    module = servebench if name == "serve_mix" else simbench
    if module is simbench and name not in simbench.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}")
    calib = calibrate()
    workdir = WORK_DIR / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = module.run(name, seed=seed, seconds=seconds, trace=trace,
                            smoke=smoke, workdir=workdir, root=ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = result["problems"]
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke,
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": min(len(problems), result["attempted"]),
        "problems": problems[:100],
        "end_to_end": result["end_to_end"],
        "per_layer": result.get("per_layer", {}),
        "samples": result["samples"],
        "extra": result["extra"],
        "calib_events_per_s": calib,
        "machine": machine(),
    }


def result_line(record: dict, spec: dict) -> dict:
    """The result line: exactly the metrics ``BENCHMARK.json`` names for
    this trace setting, each with its unit."""
    section = "per_layer" if record["trace"] else "end_to_end"
    values = record[section]
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    if missing:
        raise RuntimeError(f"{record['workload']} did not measure {missing}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec[section]},
    }


def print_record(record: dict, spec: dict) -> None:
    print(f"== {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} correct={record['correct']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    print("   samples: " + " ".join(f"{k}={v}"
                                    for k, v in record["samples"].items()))
    print(f"   calib_events_per_s {record['calib_events_per_s']:.6g}")
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            value = record[section].get(metric["name"])
            if value is not None:
                print(f"   {metric['name']:34s} {value:>16.6g} "
                      f"{metric['unit']}")
    for name, value in record["extra"].items():
        if isinstance(value, (int, float)):
            print(f"   {name:34s} {value:>16.6g} (reported, not gated)")
    for problem in record["problems"][:20]:
        print(f"   FAILED {problem}", file=sys.stderr)


def write_results(path: str, records: list[dict]) -> None:
    Path(path).write_text(json.dumps(
        {"schema": 1, "machine": machine(), "runs": records}, indent=1))


def run_suite(args, spec: dict) -> int:
    """Every workload in its own child process, ``--repeat`` times with
    consecutive seeds; all records go to ``--out``."""
    names = [w["name"] for w in spec["workloads"]]
    suite_dir = WORK_DIR / f"suite-{os.getpid()}"
    suite_dir.mkdir(parents=True, exist_ok=True)
    records, status = [], 0
    try:
        for repeat in range(args.repeat):
            seed = args.seed + repeat
            for name in names:
                child_out = suite_dir / f"{name}-{seed}.json"
                argv = [sys.executable, str(Path(__file__).resolve()),
                        "--workload", name, "--seed", str(seed),
                        "--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--out", str(child_out)]
                if args.smoke:
                    argv.append("--smoke")
                done = subprocess.run(argv, timeout=CHILD_TIMEOUT_S)
                if done.returncode != 0 or not child_out.is_file():
                    print(f"{name} seed={seed}: exit {done.returncode}",
                          file=sys.stderr)
                    status = 1
                    continue
                record = json.loads(child_out.read_text())["runs"][0]
                status |= not record["correct"]
                records.append(record)
    finally:
        shutil.rmtree(suite_dir, ignore_errors=True)
    if args.out:
        write_results(args.out, records)
    return status


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, a: list[float], b: list[float]) -> str:
    """Guide rule for a gated metric: *better* only when every B run beats
    every A run by more than A's own spread; *unresolved* when either
    side's spread exceeds the bound; *REGRESSION* when B's median is worse
    by more than the bound."""
    a1, am, a3 = _quartiles(a)
    b1, bm, b3 = _quartiles(b)
    lower = metric["better"] == "lower"
    change = (bm - am) / am if am else 0.0
    spread_a = (a3 - a1) / am if am else 0.0
    spread_b = (b3 - b1) / bm if bm else 0.0
    all_better = max(b) < min(a) if lower else min(b) > max(a)
    if all_better and abs(change) > spread_a:
        return "better"
    if max(spread_a, spread_b) > metric["bound"]:
        return "unresolved"
    if (change if lower else -change) > metric["bound"]:
        return "REGRESSION"
    return "ok"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """Rows of (workload, metric): medians and quartiles of both files, the
    bound and a verdict; reported, ungated numbers get no verdict.  Exit 1
    on any regression."""
    runs_a = json.loads(Path(path_a).read_text())["runs"]
    runs_b = json.loads(Path(path_b).read_text())["runs"]
    calib_a = statistics.median(r["calib_events_per_s"] for r in runs_a)
    calib_b = statistics.median(r["calib_events_per_s"] for r in runs_b)
    print(f"calib_events_per_s  A {calib_a:.6g}  B {calib_b:.6g}  "
          f"B/A {calib_b / calib_a:.3f} (machine speed ratio)")
    print(f"{'workload':20s} {'metric':34s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'change':>8s} {'bound':>6s} verdict")
    regressions = 0
    for workload in (w["name"] for w in spec["workloads"]):
        reported = sorted({name for r in runs_a + runs_b
                           if r["workload"] == workload
                           for name, value in r["extra"].items()
                           if isinstance(value, (int, float))})
        rows = [(section, metric) for section in ("end_to_end", "per_layer")
                for metric in spec[section]]
        rows += [("extra", {"name": name}) for name in reported]
        for section, metric in rows:
            name = metric["name"]
            a = [r[section][name] for r in runs_a
                 if r["workload"] == workload and name in r[section]]
            b = [r[section][name] for r in runs_b
                 if r["workload"] == workload and name in r[section]]
            if not a or not b:
                continue
            a1, am, a3 = _quartiles(a)
            b1, bm, b3 = _quartiles(b)
            outcome, bound = "", "-"
            if "bound" in metric:
                outcome, bound = verdict(metric, a, b), f"{metric['bound']:.2f}"
                regressions += outcome == "REGRESSION"
            change = (bm - am) / am if am else 0.0
            print(f"{workload:20s} {name:34s} "
                  f"{am:>12.5g} [{a1:.5g}, {a3:.5g}] "
                  f"{bm:>12.5g} [{b1:.5g}, {b3:.5g}] "
                  f"{change:>+8.1%} {bound:>6s} {outcome}")
    return 1 if regressions else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        help="run this one workload in-process (default: "
                             "every workload, each in a child process)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measurement time per workload run "
                             "(default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 adds the traced pass and reports per-layer "
                             "metrics (default %(default)s)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny cells, minimum passes: checks the "
                             "plumbing, measures nothing useful")
    parser.add_argument("--out", help="write the full records here (JSON)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="every-workload mode: run the set N times with "
                             "seeds SEED..SEED+N-1 (default %(default)s)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out files and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    _import_program()
    if not args.workload:
        return run_suite(args, spec)
    record = run_workload(args.workload, seed=args.seed,
                          seconds=0.0 if args.smoke else args.seconds,
                          trace=bool(args.trace), smoke=args.smoke)
    print_record(record, spec)
    if args.out:
        write_results(args.out, [record])
    print(json.dumps(result_line(record, spec)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
