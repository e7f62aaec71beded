"""Command-line entry point for the experiments.

::

    python -m repro.experiments fig1 [--paper-scale] [--csv out.csv] [--json out.json]
    python -m repro.experiments fig2
    python -m repro.experiments fig3 --workers 4 --cache-dir ~/.cache/repro
    python -m repro.experiments fig4 --cache-dir campaigns/cache
    python -m repro.experiments mobility
    python -m repro.experiments scaling
    python -m repro.experiments chaos
    python -m repro.experiments campaign fig3 --workers 8 --summary-json fig3.telemetry.json
    python -m repro.experiments campaign fig1 --faults plan.json
    python -m repro.experiments bench --quick
    python -m repro.experiments obs summary fig1 --protocol ssaf
    python -m repro.experiments obs export fig1 --chrome timeline.json
    python -m repro.experiments profile fig1 --protocol ssaf --repeat 3
    python -m repro.experiments serve --port 8750 --log-level info
    python -m repro.experiments query fig1 --protocol ssaf -x 1.0 --seed 1
    python -m repro.experiments cache stats
    python -m repro.experiments cache gc --older-than 7d
    python -m repro.experiments list

The ``serve`` form starts the long-lived result-serving daemon (HTTP/JSON
+ SSE over the campaign cache — see docs/SERVING.md), ``query`` is its
client, and ``cache`` inspects/prunes the content-addressed result store
both campaigns and the daemon share.

Experiments come from :mod:`repro.experiments.registry` — each experiment
module registers its own ``campaign_spec`` (or script entry point) with the
``@experiment`` / ``@register_script`` decorators, and the subcommand
choices, ``list`` output and campaign resolution here all read the registry.
Adding an experiment requires zero CLI edits.

Each figure command runs the sweep at the reduced default scale (or the
paper's full parameters with ``--paper-scale``), prints the experiment's
panels and optionally exports the raw series.

There is one sweep path: ``fig1`` and ``campaign fig1`` both go through the
campaign runner with the same flags.  They differ only in defaults.  The
``campaign`` form is a *durable campaign*: a content-addressed result cache
(``--cache-dir``, default ``campaigns/cache``) that a killed run re-run with
the same command resumes from, a ``summary.json`` telemetry snapshot under
``--campaign-dir`` (default ``campaigns/<name>``), and a campaign summary
that always prints.  The fig form uses a cache or campaign directory only
when one is named, and prints the summary only when a cell was quarantined
or ``--summary-json`` is given.  With ``--no-cache`` a killed run starts
over.  Both take per-cell ``--timeout`` and ``--retries`` fault
tolerance and print live progress on stderr (``--quiet`` silences it).  A
sweep with a quarantined cell prints its ``QUARANTINED`` lines and exits 1.

The ``bench`` form runs the hot-path microbenchmarks plus a small
end-to-end fig1 cell, writes ``BENCH_kernel.json`` (op/s, wall time,
events/sec, machine metadata) and exits non-zero when a benchmark regresses
past the configurable threshold against the previous snapshot — see
:mod:`repro.experiments.bench`.

``--faults PLAN.json`` injects a :class:`~repro.faults.plan.FaultPlan` into
every cell of a campaign (the plan joins the cell's content address, so
faulted and fault-free results never collide in the cache).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments import registry

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Rerun the paper's evaluation figures and the extensions.",
    )
    parser.add_argument("experiment",
                        choices=sorted(registry.names()
                                       + ["bench", "campaign", "list"]),
                        help="which experiment to run, 'campaign <exp>', or "
                             "'bench'")
    parser.add_argument("target", nargs="?", default=None,
                        help="experiment name for the campaign subcommand")
    parser.add_argument("--paper-scale", action="store_true",
                        help="run at the paper's full scale (slow)")
    parser.add_argument("--quick", action="store_true",
                        help="run at smoke-test scale (fewer cells, fewer "
                             "seeds, shorter durations — for CI)")
    parser.add_argument("--mobility", metavar="NAME", default=None,
                        help="override the sweep's mobility model "
                             "(rwp, rwalk, gauss_markov_3d, or any "
                             "registered name; joins the cells' cache keys)")
    parser.add_argument("--large", action="store_true",
                        help="run the large-scale grid (scaling: a "
                             "10,000-node cell on the sparse link budget; "
                             "skipped in quick CI)")
    parser.add_argument("--csv", metavar="PATH",
                        help="export the swept series as CSV")
    parser.add_argument("--json", metavar="PATH",
                        help="export the swept series as JSON")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="run sweep cells across N processes (default 1)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="content-addressed result cache directory "
                             "(campaign default: campaigns/cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache")
    parser.add_argument("--campaign-dir", metavar="DIR", default=None,
                        help="directory for the campaign's summary.json "
                             "(campaign default: campaigns/<name>)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SEC",
                        help="per-cell wall-clock timeout (needs --workers > 1)")
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="retries per failing cell before quarantine "
                             "(default 2)")
    parser.add_argument("--observe", action="store_true",
                        help="collect packet-lifecycle metrics in executed "
                             "cells and fold them into the campaign summary")
    parser.add_argument("--faults", metavar="PLAN.json", default=None,
                        help="inject this FaultPlan into every sweep cell "
                             "(see docs/FAULTS.md)")
    parser.add_argument("--summary-json", metavar="PATH",
                        help="write the campaign telemetry summary as JSON")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-cell progress lines")
    parser.add_argument("--log-level", metavar="LEVEL", default="off",
                        choices=("debug", "info", "warning", "error", "off"),
                        help="enable structured campaign logs at this "
                             "threshold (default %(default)s)")
    parser.add_argument("--log-json", action="store_true",
                        help="emit structured logs as JSON lines")
    return parser


def _campaign_spec(name: str):
    """The experiment's :class:`~repro.campaign.CampaignSpec`, or None."""
    from repro.experiments import registry

    definition = registry.get(name)
    if definition is None or not definition.is_campaign:
        return None
    return definition.build_spec()


def _load_fault_plan(args):
    """The FaultPlan named by ``--faults``, or None."""
    if args.faults is None:
        return None
    from repro.faults import FaultPlan
    return FaultPlan.load(args.faults)


def _with_faults(spec, plan):
    """The spec with the plan joined to every cell (and its cache keys)."""
    if plan is None:
        return spec
    return dataclasses.replace(
        spec, extra_kwargs={**dict(spec.extra_kwargs), "faults": plan})


def _with_mobility(spec, mobility):
    """The spec with a mobility-model override joined to every cell (and
    its cache keys) — sweeps whose ``run_one`` takes ``mobility=``."""
    if mobility is None:
        return spec
    from repro.topology.mobility import mobility_model
    mobility_model(mobility)  # fail fast on unknown names
    return dataclasses.replace(
        spec, extra_kwargs={**dict(spec.extra_kwargs), "mobility": mobility})


def _print_panels(name: str, results: dict) -> None:
    from repro.experiments import registry
    from repro.stats.series import format_table
    from repro.viz.ascii_chart import line_chart

    definition = registry.get(name)
    x_label = definition.x_label
    series = list(results.values())
    for metric in definition.panels:
        print(f"\n=== {name}: {metric} ===")
        print(format_table(series, metric, x_label=x_label))
        print(line_chart({s.label: s.curve(metric) for s in series},
                         title=metric, x_label=x_label))


def _export(results: dict, args) -> None:
    if args.csv:
        from repro.stats.export import write_csv
        write_csv(results, args.csv)
        print(f"\nwrote {args.csv}")
    if args.json:
        from repro.stats.export import write_json
        write_json(results, args.json)
        print(f"wrote {args.json}")


def _run_sweep(name: str, args, durable: bool) -> int:
    """Run a registered sweep through the campaign runner, print its panels
    and export its series.

    ``durable`` is the ``campaign <name>`` form: its campaign directory
    defaults to ``campaigns/<name>`` and its cache to ``campaigns/cache``,
    and its campaign summary always prints.  The fig form keeps both off
    unless asked and prints the summary only when a cell was quarantined or
    ``--summary-json`` is given.  Exits 1 when any cell was quarantined and
    130 on Ctrl-C, with one stderr line saying whether a re-run resumes.
    """
    from repro.campaign import run_spec
    from repro.experiments import registry

    spec = _campaign_spec(name)
    if spec is None:
        capable = " ".join(registry.campaign_capable())
        print(f"'{name}' cannot run as a campaign "
              f"(choose from: {capable})",
              file=sys.stderr)
        return 2
    spec = _with_mobility(_with_faults(spec, _load_fault_plan(args)),
                          args.mobility)

    campaign_dir, cache_dir = args.campaign_dir, args.cache_dir
    if durable:
        campaign_dir = campaign_dir or os.path.join("campaigns", name)
        cache_dir = cache_dir or os.path.join("campaigns", "cache")
    progress = None
    if not args.quiet:
        def progress(event):
            print(str(event), file=sys.stderr)

    cache_dir = None if args.no_cache else cache_dir
    try:
        outcome = run_spec(
            spec,
            cache_dir=cache_dir,
            campaign_dir=campaign_dir,
            workers=args.workers,
            timeout_s=args.timeout,
            max_retries=args.retries,
            observe=args.observe,
            progress=progress,
        )
    except KeyboardInterrupt:
        # Every cell settled before the interrupt is already in the cache.
        hint = (f"re-run the same command to resume from {cache_dir}"
                if cache_dir is not None
                else "no cache was kept, so a re-run starts over")
        print(f"interrupted: {hint}", file=sys.stderr)
        return 130
    _print_panels(name, outcome.results)
    if durable or outcome.quarantined or args.summary_json:
        _report_campaign(outcome, args)
    _export(outcome.results, args)
    return 1 if outcome.quarantined else 0


def _report_campaign(outcome, args) -> None:
    summary = outcome.summary
    print(f"\n--- campaign summary ---")
    print(f"cells: {summary['completed']}/{summary['total_cells']} "
          f"(executed {summary['executed']}, cache hits "
          f"{summary['cache_hits']})")
    print(f"cache hit ratio: {summary['cache_hit_ratio']:.0%}  "
          f"throughput: {summary['cells_per_sec']:.2f} cells/s  "
          f"elapsed: {summary['elapsed_s']:.1f}s  "
          f"retries: {summary['retries']}")
    obs = summary.get("obs")
    if obs is not None:
        drops = obs["metrics"].get("repro_drops_total", {}).get("samples", {})
        total_drops = int(sum(drops.values())) if drops else 0
        print(f"observed cells: {obs['cells_observed']}  "
              f"drops recorded: {total_drops} "
              f"(see 'obs' in --summary-json for the full registry)")
    for cell in summary["quarantined_cells"]:
        print(f"QUARANTINED {cell['protocol']}/x={cell['x']:g}/"
              f"seed={cell['seed']} after {cell['attempts']} attempts: "
              f"{cell['error']}", file=sys.stderr)
    if args.summary_json:
        from repro.stats.export import write_campaign_summary
        write_campaign_summary(summary, args.summary_json)
        print(f"wrote {args.summary_json}")


def _list_experiments() -> int:
    from repro.experiments import registry

    print("available experiments:")
    for name in registry.names():
        definition = registry.get(name)
        kind = "campaign" if definition.is_campaign else "script"
        desc = f"  — {definition.description}" if definition.description else ""
        print(f"  {name:<10} [{kind}]{desc}")
    print(f"campaign-capable: {' '.join(registry.campaign_capable())} "
          "(python -m repro.experiments campaign <name> [--faults PLAN.json])")
    print("benchmarks: python -m repro.experiments bench "
          "[--quick] [--threshold FRAC]")
    print("observability: python -m repro.experiments obs "
          "{summary,export} <experiment> [--protocol P] [--x X] "
          "[--seed S]")
    print("profiling: python -m repro.experiments profile <experiment> "
          "[--repeat N] [--out PROFILE_hotspots.json]")
    print("serving: python -m repro.experiments serve [--port N] / "
          "query <exp> --protocol P -x X --seed S / cache {stats,gc} "
          "(see docs/SERVING.md)")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)

    # `bench`, `obs`, `serve`, `query`, `cache` and `profile` own their
    # flags; dispatch before the experiment parser sees them.
    if argv and argv[0] == "bench":
        from repro.experiments.bench import main as bench_main
        return bench_main(argv[1:])
    if argv and argv[0] == "obs":
        from repro.experiments.obs_cli import main as obs_main
        return obs_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.cli import main as serve_main
        return serve_main(argv[1:])
    if argv and argv[0] == "query":
        from repro.serve.client import main as query_main
        return query_main(argv[1:])
    if argv and argv[0] == "cache":
        from repro.campaign.cache_cli import main as cache_main
        return cache_main(argv[1:])
    if argv and argv[0] == "profile":
        from repro.experiments.profile_cli import main as profile_main
        return profile_main(argv[1:])

    args = build_parser().parse_args(argv)

    if args.log_level != "off" or args.log_json:
        from repro.obs.logging import configure
        configure(args.log_level if args.log_level != "off" else "info",
                  json_mode=args.log_json)

    if args.experiment == "list":
        return _list_experiments()

    if args.paper_scale:
        os.environ["REPRO_PAPER_SCALE"] = "1"
    if args.large:
        os.environ["REPRO_LARGE_SCALE"] = "1"
    if args.quick:
        os.environ["REPRO_QUICK"] = "1"

    if args.experiment == "campaign":
        if args.target is None:
            print("usage: python -m repro.experiments campaign <experiment>",
                  file=sys.stderr)
            return 2
        return _run_sweep(args.target, args, durable=True)

    from repro.experiments import registry
    definition = registry.get(args.experiment)

    if not definition.is_campaign:
        # Script experiments (fig2's maps, the chaos gate) run their own main.
        if args.csv or args.json:
            print(f"{args.experiment} is a script, not a series sweep; "
                  "--csv/--json ignored", file=sys.stderr)
        rc = definition.script()
        return int(rc) if rc is not None else 0

    return _run_sweep(args.experiment, args, durable=False)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
