"""``repro obs`` — observed single-cell runs: summaries and timeline export.

::

    python -m repro.experiments obs summary fig1 [--protocol ssaf] [--x 1.0]
                                                 [--seed 1] [--json out.json]
    python -m repro.experiments obs summary --campaign-dir campaigns/fig1
    python -m repro.experiments obs export fig1 --chrome timeline.json
                                                [--jsonl timeline.jsonl]

``summary --campaign-dir`` reads a finished (or running) campaign's
persisted ``summary.json`` instead of executing anything: settlement
counts and cell wall-time percentiles.

The cell forms run exactly one cell of the named experiment's campaign grid
(defaults: first protocol, first x, first seed) with a fresh
:class:`~repro.obs.observe.Observability` attached, then either print the
run report (top drop reasons, per-frame-kind transmission breakdown,
election-win backoff histograms) or export the packet-lifecycle ledger as
Chrome trace-event JSON (loadable in Perfetto / ``chrome://tracing``)
and/or flat JSONL.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.registry import campaign_capable

__all__ = ["main", "build_parser", "run_observed_cell"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments obs",
        description="Run one observed experiment cell: summarize it or "
                    "export its packet-lifecycle timeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    names = " ".join(campaign_capable())

    def add_cell_args(p: argparse.ArgumentParser, *,
                      optional_experiment: bool = False) -> None:
        if optional_experiment:
            p.add_argument("experiment", nargs="?", default=None,
                           help=f"experiment name ({names}); omit with "
                                "--campaign-dir")
        else:
            p.add_argument("experiment",
                           help=f"experiment name ({names})")
        p.add_argument("--protocol", default=None,
                       help="protocol to run (default: experiment's first)")
        p.add_argument("--x", type=float, default=None, metavar="X",
                       help="swept x value; must be one of the experiment's "
                            "grid points (default: first)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed; must be one of the experiment's grid "
                            "seeds (default: first)")
        p.add_argument("--paper-scale", action="store_true",
                       help="use the paper's full-scale grid (slow)")

    p_summary = sub.add_parser(
        "summary", help="print the observed-run report")
    add_cell_args(p_summary, optional_experiment=True)
    p_summary.add_argument("--json", metavar="PATH",
                           help="also write the summary dict as JSON")
    p_summary.add_argument("--campaign-dir", metavar="DIR", default=None,
                           help="summarize a campaign directory's persisted "
                                "summary.json instead of running a cell")

    p_export = sub.add_parser(
        "export", help="export the packet-lifecycle timeline")
    add_cell_args(p_export)
    p_export.add_argument("--chrome", metavar="PATH",
                          help="write Chrome trace-event JSON "
                               "(Perfetto-loadable)")
    p_export.add_argument("--jsonl", metavar="PATH",
                          help="write the ledger as flat JSONL")
    return parser


def _pick(value, grid, label: str, convert=lambda v: v):
    """Resolve a --protocol/--x/--seed flag against the experiment grid."""
    if value is None:
        return grid[0]
    for candidate in grid:
        if convert(candidate) == convert(value):
            return candidate
    choices = " ".join(str(g) for g in grid)
    raise SystemExit(f"error: {label} {value!r} is not on the grid "
                     f"(choose from: {choices})")


def run_observed_cell(args):
    """Run the selected cell with observability on; returns
    ``(obs, cell_summary, label)``."""
    import os

    from repro.experiments.cli import _campaign_spec
    from repro.obs.observe import Observability

    if args.paper_scale:
        os.environ["REPRO_PAPER_SCALE"] = "1"
    spec = _campaign_spec(args.experiment)
    if spec is None:
        raise SystemExit(f"error: unknown experiment {args.experiment!r} "
                         f"(choose from: {' '.join(campaign_capable())})")

    protocol = _pick(args.protocol, spec.protocols, "--protocol")
    x = _pick(args.x, spec.xs, "--x", convert=float)
    seed = _pick(args.seed, spec.seeds, "--seed", convert=int)

    obs = Observability()
    cell_summary = spec.run_one(protocol, x, seed, spec.config, obs=obs,
                                **dict(spec.extra_kwargs))
    label = f"{spec.name}/{protocol}/x={x:g}/seed={seed}"
    return obs, cell_summary, label


def _campaign_summary(args) -> int:
    """``obs summary --campaign-dir``: print the persisted campaign summary."""
    from repro.campaign.journal import CampaignJournal
    from repro.obs.summary import format_campaign_summary

    journal = CampaignJournal(args.campaign_dir)
    summary = journal.read_summary()
    if summary is None:
        print(f"error: no summary.json under {args.campaign_dir!r} — "
              "has the campaign run (or finished a sweep) there?",
              file=sys.stderr)
        return 2
    print(f"campaign dir: {args.campaign_dir}\n")
    print(format_campaign_summary(summary))
    if args.json:
        import json
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2, default=str)
            handle.write("\n")
        print(f"\nwrote {args.json}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "summary" and getattr(args, "campaign_dir", None):
        return _campaign_summary(args)
    if args.command == "summary" and args.experiment is None:
        print("error: summary needs an experiment name or --campaign-dir DIR",
              file=sys.stderr)
        return 2

    try:
        obs, _cell_summary, label = run_observed_cell(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise

    if args.command == "summary":
        from repro.obs.summary import format_summary, summarize
        report = summarize(obs)
        print(f"observed cell: {label}\n")
        print(format_summary(report))
        if args.json:
            import json
            with open(args.json, "w") as handle:
                json.dump({"cell": label, **report}, handle, indent=2)
                handle.write("\n")
            print(f"\nwrote {args.json}")
        return 0

    # export
    if not args.chrome and not args.jsonl:
        print("error: export needs --chrome PATH and/or --jsonl PATH",
              file=sys.stderr)
        return 2
    from repro.obs.timeline import write_chrome_trace, write_jsonl
    print(f"observed cell: {label} "
          f"({len(obs.ledger)} ledger entries)")
    if args.chrome:
        write_chrome_trace(obs.ledger, args.chrome)
        print(f"wrote {args.chrome}")
    if args.jsonl:
        write_jsonl(obs.ledger, args.jsonl)
        print(f"wrote {args.jsonl}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
