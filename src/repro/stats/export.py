"""Export sweep results to CSV and JSON.

The benchmark harness prints ASCII panels; downstream analysis (plotting the
figures with matplotlib, diffing runs) wants machine-readable series.  These
helpers serialize :class:`~repro.stats.series.SweepSeries` collections with
their per-point statistics, read them back as typed rows for round-trip
verification, and export campaign telemetry summaries.  :func:`write_atomic`
is the one durable publish: result-cache entries and campaign summaries
both go through it.

All writers accept ``str`` or :class:`os.PathLike` and create missing parent
directories, so ``write_csv(results, out_dir / "runs" / "fig3.csv")`` just
works.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from pathlib import Path
from typing import Mapping

from repro.stats.series import METRIC_FIELDS, SweepSeries

__all__ = [
    "series_to_rows",
    "write_csv",
    "read_csv_rows",
    "to_json",
    "write_json",
    "read_json_rows",
    "write_atomic",
    "write_campaign_summary",
]

_ROW_FIELDS = ["protocol", "x", "metric", "mean", "stderr", "n"]


def _prepare(path: str | os.PathLike) -> Path:
    """Normalize a destination path and ensure its parent directory exists."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    return target


def series_to_rows(results: Mapping[str, SweepSeries]) -> list[dict]:
    """Flatten ``{protocol: series}`` into one row per (protocol, x, metric)."""
    rows = []
    for label, series in results.items():
        for x in series.xs:
            for metric in METRIC_FIELDS:
                stats = series.metric(x, metric)
                rows.append({
                    "protocol": label,
                    "x": x,
                    "metric": metric,
                    "mean": stats.mean,
                    "stderr": stats.stderr,
                    "n": stats.n,
                })
    return rows


def write_csv(results: Mapping[str, SweepSeries], path: str | os.PathLike) -> None:
    rows = series_to_rows(results)
    with open(_prepare(path), "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=_ROW_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def read_csv_rows(path: str | os.PathLike) -> list[dict]:
    """Read a :func:`write_csv` file back into typed rows."""
    with open(path, newline="") as handle:
        return [
            {
                "protocol": row["protocol"],
                "x": float(row["x"]),
                "metric": row["metric"],
                "mean": float(row["mean"]),
                "stderr": float(row["stderr"]),
                "n": int(row["n"]),
            }
            for row in csv.DictReader(handle)
        ]


def to_json(results: Mapping[str, SweepSeries]) -> str:
    payload = {
        label: {
            "xs": series.xs,
            "metrics": {
                metric: [
                    {"x": x, **vars(series.metric(x, metric))}
                    for x in series.xs
                ]
                for metric in METRIC_FIELDS
            },
        }
        for label, series in results.items()
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def write_json(results: Mapping[str, SweepSeries], path: str | os.PathLike) -> None:
    with open(_prepare(path), "w") as handle:
        handle.write(to_json(results) + "\n")


def read_json_rows(path: str | os.PathLike) -> list[dict]:
    """Read a :func:`write_json` file back into the same typed rows as
    :func:`series_to_rows` (same ordering: protocol, x, metric)."""
    payload = json.loads(Path(path).read_text())
    rows = []
    for label in payload:
        series = payload[label]
        for x in series["xs"]:
            for metric in METRIC_FIELDS:
                point = next(p for p in series["metrics"][metric]
                             if p["x"] == x)
                rows.append({
                    "protocol": label,
                    "x": float(x),
                    "metric": metric,
                    "mean": float(point["mean"]),
                    "stderr": float(point["stderr"]),
                    "n": int(point["n"]),
                })
    return rows


def write_atomic(path: str | os.PathLike, text: str) -> None:
    """Publish ``text`` at ``path`` atomically and durably.

    The bytes go to a temp file in the same directory, which is fsynced and
    then ``os.replace``d over ``path``: a crash at any instant leaves either
    the previous file or the new one, never a torn mix, and no temp file.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_campaign_summary(summary: Mapping, path: str | os.PathLike) -> None:
    """Publish a campaign telemetry summary (see
    :meth:`repro.campaign.telemetry.CampaignTelemetry.summary`) as JSON,
    atomically; values JSON cannot encode are written as strings."""
    write_atomic(_prepare(path),
                 json.dumps(dict(summary), indent=2, sort_keys=True,
                            default=str) + "\n")
