"""``repro profile`` — where does one cell's wall time go?

::

    python -m repro.experiments profile fig1 [--protocol ssaf] [--x 1.0]
                                             [--seed 1] [--interval 0.005]
                                             [--out PROFILE_hotspots.json]

Runs exactly one cell of the named experiment's campaign grid (the same
cell-selection flags as ``repro obs``) under the sampling profiler
(:class:`~repro.obs.profiler.StackSampler`), prints the per-subsystem
wall-time attribution (phy/mac/net/sim/…) plus the flat hotspot list, and
writes the machine-readable report next to ``BENCH_kernel.json`` — the
bench gate says *that* something regressed, this report says *where*.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["main", "build_parser"]

#: Default report path, sibling of BENCH_kernel.json at the repo root.
DEFAULT_OUT = "PROFILE_hotspots.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments profile",
        description="Run one experiment cell under the sampling profiler "
                    "and attribute wall time to subsystems.",
    )
    parser.add_argument("experiment",
                        help="a campaign-capable experiment name (see "
                             "'python -m repro.experiments list')")
    parser.add_argument("--protocol", default=None,
                        help="protocol to run (default: experiment's first)")
    parser.add_argument("--x", type=float, default=None, metavar="X",
                        help="swept x value; must be on the experiment's "
                             "grid (default: first)")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed; must be one of the experiment's grid "
                             "seeds (default: first)")
    parser.add_argument("--paper-scale", action="store_true",
                        help="use the paper's full-scale grid (slow)")
    parser.add_argument("--large", action="store_true",
                        help="use the large-scale grid (scaling: 10k-node "
                             "sparse-channel cell)")
    parser.add_argument("--interval", type=float, default=0.005,
                        metavar="SEC",
                        help="sampling interval (default %(default)s)")
    parser.add_argument("--top", type=int, default=30, metavar="N",
                        help="hotspot functions to keep (default %(default)s)")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run the cell N times under one sampler for "
                             "more samples on fast cells (default 1)")
    parser.add_argument("--out", metavar="PATH", default=DEFAULT_OUT,
                        help="machine-readable report path "
                             "(default %(default)s)")
    parser.add_argument("--no-out", action="store_true",
                        help="print the report but write nothing")
    return parser


def _run_profiled(args):
    """Resolve the cell and run it ``--repeat`` times under one sampler;
    returns ``(report, label)``."""
    import os

    from repro.experiments.cli import _campaign_spec
    from repro.experiments.obs_cli import _pick
    from repro.experiments.registry import campaign_capable
    from repro.obs.profiler import StackSampler

    if args.paper_scale:
        os.environ["REPRO_PAPER_SCALE"] = "1"
    if args.large:
        os.environ["REPRO_LARGE_SCALE"] = "1"
    spec = _campaign_spec(args.experiment)
    if spec is None:
        raise SystemExit(f"error: unknown experiment {args.experiment!r} "
                         f"(choose from: {' '.join(campaign_capable())})")

    protocol = _pick(args.protocol, spec.protocols, "--protocol")
    x = _pick(args.x, spec.xs, "--x", convert=float)
    seed = _pick(args.seed, spec.seeds, "--seed", convert=int)

    sampler = StackSampler(interval_s=args.interval)
    with sampler:
        for _ in range(max(1, args.repeat)):
            spec.run_one(protocol, x, seed, spec.config,
                         **dict(spec.extra_kwargs))
    label = f"{spec.name}/{protocol}/x={x:g}/seed={seed}"
    return sampler.report(top=args.top), label


def _format_report(report: dict, label: str) -> str:
    lines = [f"profiled cell: {label}",
             f"samples: {report['samples']} over {report['elapsed_s']:.2f}s "
             f"(interval {report['interval_s'] * 1e3:g} ms, "
             f"missed {report['missed']})"]
    lines.append("\nwall time by subsystem:")
    for name, entry in report["subsystems"].items():
        bar = "#" * round(40 * entry["fraction"])
        lines.append(f"  {name:<12} {entry['fraction']:>6.1%} "
                     f"({entry['samples']:>5})  {bar}")
    if not report["subsystems"]:
        lines.append("  (no samples — cell too fast; try --repeat or a "
                     "smaller --interval)")
    lines.append("\nhottest functions:")
    for spot in report["hotspots"][:15]:
        lines.append(f"  {spot['fraction']:>6.1%}  [{spot['subsystem']}] "
                     f"{spot['function']}")
    if not report["hotspots"]:
        lines.append("  (none)")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(
        list(sys.argv[1:]) if argv is None else list(argv))
    try:
        report, label = _run_profiled(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    print(_format_report(report, label))
    if not args.no_out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"cell": label, **report}, handle, indent=2)
            handle.write("\n")
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
