"""Spool draining, shared by every spool-based execution backend.

The backend protocol, its registry and the default ``local-pool`` backend
live in :mod:`repro.campaign.backend` and are re-exported here.  The
distributed backends (``ssh``, ``job-array``) live in :mod:`repro.dist.ssh`
and :mod:`repro.dist.job_array`; both coordinate through a
:class:`~repro.dist.spool.WorkSpool` and share :func:`drain_spool`, the
coordinator loop that folds settlement markers back into the campaign's
journal and telemetry.  Their workers publish results to the cache
themselves (:mod:`repro.dist.worker`).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable

from repro.campaign.backend import (
    BackendRun,
    DistOptions,
    ExecutionBackend,
    LocalPoolBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.campaign.cache import ResultCache
from repro.campaign.executor import CellFailure, ObservedResult
from repro.dist.spool import WorkSpool

__all__ = [
    "BackendRun",
    "DistOptions",
    "ExecutionBackend",
    "LocalPoolBackend",
    "backend_names",
    "drain_spool",
    "get_backend",
    "register_backend",
]


# --------------------------------------------------------------------------
# Spool draining — shared by every spool-based backend.


def fold_worker_stats(stats: list[dict]) -> dict:
    """Collapse per-worker stats files into campaign-level dist counters."""
    totals = {"workers": len(stats), "cells_done": 0, "cells_failed": 0,
              "steals": 0, "lost_steals": 0, "heartbeats": 0}
    hosts: dict[str, dict] = {}
    for entry in stats:
        host = str(entry.get("host", "?"))
        bucket = hosts.setdefault(
            host, {"workers": 0, "cells_done": 0, "steals": 0,
                   "heartbeats": 0})
        bucket["workers"] += 1
        for key in ("cells_done", "cells_failed", "steals", "lost_steals",
                    "heartbeats"):
            value = int(entry.get(key, 0))
            totals[key] += value
            if key in bucket:
                bucket[key] += value
    totals["hosts"] = hosts
    return totals


def dist_obs_snapshot(stats: dict) -> dict:
    """Render dist counters as a metrics-registry snapshot so they merge
    into the campaign's observability aggregate (and are greppable in
    ``repro obs summary --campaign-dir``)."""
    from repro.obs.registry import MetricsRegistry

    registry = MetricsRegistry()
    steals = registry.counter("repro_dist_steals_total",
                              "Cells stolen after lease expiry", ("host",))
    beats = registry.counter("repro_dist_heartbeats_total",
                             "Lease renewals sent by workers", ("host",))
    done = registry.counter("repro_dist_cells_done_total",
                            "Cells settled by dist workers", ("host",))
    for host, bucket in stats.get("hosts", {}).items():
        steals.labels(host).inc(bucket.get("steals", 0))
        beats.labels(host).inc(bucket.get("heartbeats", 0))
        done.labels(host).inc(bucket.get("cells_done", 0))
    return registry.snapshot()


def drain_spool(
    spool: WorkSpool,
    run: BackendRun,
    cache: ResultCache,
    *,
    alive: Callable[[], bool] | None = None,
    fallback: Callable[[], None] | None = None,
    deadline_s: float | None = None,
) -> dict:
    """Coordinator loop: fold settlement markers into the campaign callbacks
    until every spooled cell is settled.

    ``alive`` reports whether any external worker can still make progress;
    when it goes False with cells outstanding, ``fallback`` (typically an
    inline worker pass) is invoked once to guarantee completion.  Folding
    is exactly-once per key regardless of how many workers executed it —
    the done marker is one file, and ``folded`` is consulted before every
    callback, so a stolen-and-reexecuted cell never double-counts in the
    journal.
    """
    cells_by_key = {cell.key: cell for cell in run.cells}
    folded: set[str] = set()
    fallback_used = False
    started = time.monotonic()

    def fold_once() -> None:
        for key in spool.done_keys() - folded:
            cell = cells_by_key.get(key)
            marker = spool.read_done(key)
            if cell is None or marker is None:
                continue
            summary = cache.get(key)
            if summary is None:
                continue  # marker visible before the entry — next pass
            snapshot = marker.get("obs_snapshot")
            payload = (ObservedResult(summary=summary, obs_snapshot=snapshot)
                       if snapshot else summary)
            folded.add(key)
            run.on_success(cell, payload, int(marker.get("attempts", 1)),
                           float(marker.get("wall_s", 0.0)))
        for key in spool.failed_keys() - folded:
            cell = cells_by_key.get(key)
            marker = spool.read_failed(key)
            if cell is None or marker is None:
                continue
            folded.add(key)
            run.on_quarantine(CellFailure(
                cell, int(marker.get("attempts", 1)),
                str(marker.get("error", "worker failure"))))

    try:
        while True:
            fold_once()
            if len(folded) >= len(cells_by_key):
                break
            if deadline_s is not None and time.monotonic() - started > deadline_s:
                raise TimeoutError(
                    f"spool {spool.directory} did not settle within "
                    f"{deadline_s:.0f}s ({len(folded)}/{len(cells_by_key)} "
                    "cells folded)")
            if alive is not None and not alive():
                if fallback is not None and not fallback_used:
                    fallback_used = True
                    fallback()
                    continue
                # No workers and no fallback: fold what exists and report.
                fold_once()
                break
            time.sleep(run.options.poll_s)
    finally:
        spool.request_stop()

    stats = fold_worker_stats(spool.worker_stats())
    stats["cells_folded"] = len(folded)
    stats["cells_spooled"] = len(cells_by_key)
    stats["inline_fallback"] = fallback_used
    return stats


def default_spool_dir(run: BackendRun) -> Path:
    """Where a spool-based backend coordinates: under the campaign dir when
    there is one, else a campaign-named directory under ``campaigns/``."""
    if run.options.spool_dir:
        return Path(run.options.spool_dir)
    if run.campaign_dir:
        return Path(run.campaign_dir) / "spool"
    safe = (run.runner_name or "campaign").replace("/", "_").replace(":", "_")
    return Path("campaigns") / safe / "spool"
