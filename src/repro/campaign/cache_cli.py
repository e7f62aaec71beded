"""``repro cache`` — operational companion to the result cache.

::

    python -m repro.experiments cache stats [--cache-dir DIR] [--json]
    python -m repro.experiments cache gc --older-than 7d [--cache-dir DIR]
                                         [--dry-run]

``stats`` reports the store's shape (entry count, on-disk bytes,
quarantined ``.corrupt`` files); ``gc`` prunes entries older than a cutoff
given as seconds or with a ``s``/``m``/``h``/``d``/``w`` suffix.  Both
default to the campaign CLI's cache location, ``campaigns/cache``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.campaign.cache import ResultCache

__all__ = ["main", "parse_age"]

_AGE_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}

#: Where the campaign CLI puts the cache when no --cache-dir is given.
DEFAULT_CACHE_DIR = os.path.join("campaigns", "cache")


def parse_age(text: str) -> float:
    """``"90"`` → 90 s; ``"30m"``/``"12h"``/``"7d"``/``"2w"`` likewise."""
    text = text.strip().lower()
    unit = 1.0
    if text and text[-1] in _AGE_UNITS:
        unit = _AGE_UNITS[text[-1]]
        text = text[:-1]
    try:
        seconds = float(text) * unit
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid age {text!r} (use e.g. 3600, 30m, 12h, 7d)") from None
    if seconds < 0:
        raise argparse.ArgumentTypeError("age must be non-negative")
    return seconds


def _human_bytes(n: int) -> str:
    value = float(n)
    for suffix in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or suffix == "GiB":
            return f"{value:.1f} {suffix}" if suffix != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} GiB"  # pragma: no cover - unreachable


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments cache",
        description="Inspect and prune the content-addressed result cache.")
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="entry count, bytes, counters")
    stats.add_argument("--cache-dir", metavar="DIR", default=DEFAULT_CACHE_DIR,
                       help=f"cache root (default {DEFAULT_CACHE_DIR})")
    stats.add_argument("--json", action="store_true",
                       help="machine-readable output")

    gc = sub.add_parser("gc", help="age-based pruning")
    gc.add_argument("--older-than", metavar="AGE", type=parse_age,
                    required=True,
                    help="remove entries older than AGE (e.g. 3600, 12h, 7d)")
    gc.add_argument("--cache-dir", metavar="DIR", default=DEFAULT_CACHE_DIR,
                    help=f"cache root (default {DEFAULT_CACHE_DIR})")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be removed without unlinking")
    return parser


def _cmd_stats(args) -> int:
    cache = ResultCache(args.cache_dir)
    stats = cache.stats()
    if args.json:
        print(json.dumps(stats, sort_keys=True, indent=1))
        return 0
    print(f"cache root:    {stats['root']}")
    print(f"entries:       {stats['entries']} "
          f"({_human_bytes(stats['size_bytes'])})")
    print(f"quarantined:   {stats['quarantined_files']} .corrupt file(s)")
    print(f"this process:  {stats['hits']} hits / {stats['misses']} misses "
          f"/ {stats['malformed']} malformed "
          f"(hit ratio {stats['hit_ratio']:.0%})")
    return 0


def _cmd_gc(args) -> int:
    cache = ResultCache(args.cache_dir)
    if args.dry_run:
        import time
        cutoff = time.time() - args.older_than
        doomed = []
        for path in cache.root.glob("??/*"):
            try:
                if (path.suffix == ".corrupt"
                        or (path.suffix == ".json"
                            and path.stat().st_mtime < cutoff)):
                    doomed.append(path)
            except OSError:
                continue
        size = sum(p.stat().st_size for p in doomed if p.exists())
        print(f"would remove {len(doomed)} file(s), "
              f"freeing {_human_bytes(size)}")
        return 0
    report = cache.gc(args.older_than)
    print(f"removed {report['removed']} file(s), "
          f"freed {_human_bytes(report['freed_bytes'])}, "
          f"kept {report['kept']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(
        list(sys.argv[1:]) if argv is None else list(argv))
    if args.command == "stats":
        return _cmd_stats(args)
    return _cmd_gc(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
