"""Run the ``repro serve`` daemon with the benchmark's probe attached.

    python bench/daemon.py --probe-out FILE [--profile-out FILE] -- ARGS...

ARGS are ``repro serve`` arguments; the daemon runs exactly as
``python -m repro.serve ARGS`` would.  When it stops (SIGINT), FILE receives
the events each simulated cell dispatched, as ``[seed, events]`` pairs, and
the daemon's peak RSS.  With ``--profile-out`` every daemon thread runs
under ``cProfile`` and the merged stats are dumped there.  The profilers
count per-thread CPU time, so an event loop idling in ``select`` or a worker
waiting for a job costs nothing.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import resource
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from probe import CellProbe  # noqa: E402
from repro.serve import cli  # noqa: E402


def _new_profiler() -> cProfile.Profile:
    return cProfile.Profile(time.thread_time)


def _profile_new_threads(profilers: list) -> None:
    """Give every thread started from now on its own profiler."""
    original = threading.Thread.run

    def run(thread):
        profiler = _new_profiler()
        profilers.append(profiler)
        profiler.enable()
        try:
            original(thread)
        finally:
            profiler.disable()

    threading.Thread.run = run


def _dump_profile(main: cProfile.Profile, threads: list, path: str) -> None:
    main.disable()
    stats = pstats.Stats(main)
    for profiler in threads:
        profiler.create_stats()
        if profiler.stats:
            stats.add(profiler)
    stats.dump_stats(path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/daemon.py")
    parser.add_argument("--probe-out", required=True)
    parser.add_argument("--profile-out")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    main_profiler = None
    thread_profilers: list[cProfile.Profile] = []
    if args.profile_out:
        from repro.experiments import registry
        registry.load_builtins()  # keep experiment imports out of the profile
        _profile_new_threads(thread_profilers)
        main_profiler = _new_profiler()
        main_profiler.enable()
    with CellProbe() as probe:
        try:
            code = cli.main(serve_args)
        finally:
            if main_profiler is not None:
                _dump_profile(main_profiler, thread_profilers,
                              args.profile_out)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            Path(args.probe_out).write_text(json.dumps({
                "cells": [[row["seed"], row["events"]] for row in probe.rows],
                "peak_rss_mb": peak_kb / 1024,
            }))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
