"""Campaign orchestration: result cache + fault-tolerant execution.

:func:`run_campaign` is the one entry point.  Given the same
``run_one(protocol, x, seed, config, **extra)`` callable the serial runners
use, it settles every cell of the (protocol × x × seed) grid in two steps:

1. **cache** — cells whose content address is present in the result cache
   are hits, never executed;
2. **execution** — everything else runs in the local process pool under
   the fault-tolerant executor (timeouts, retries, pool recovery,
   quarantine), and each result is published to the cache as it settles.

The cache is the only store a campaign reads back, so a killed campaign
re-run on the same ``cache_dir`` executes only the cells that had not
settled (without a cache it starts over).  Results are reassembled in
canonical grid order — the exact nested-loop order the serial runners
use — so the returned ``{protocol: SweepSeries}`` is bit-identical to an
uninterrupted, uncached serial sweep regardless of completion order, cache
state, or how many times the campaign was killed and re-run along the way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.campaign.cache import ResultCache
from repro.campaign.executor import (
    Cell,
    CellFailure,
    ExecutorConfig,
    FaultTolerantExecutor,
    ObservedResult,
    ObservedRunner,
    split_observed,
)
from repro.campaign.fingerprint import cell_key, runner_name_of
from repro.campaign.telemetry import CampaignTelemetry, ProgressEvent
from repro.stats.export import write_campaign_summary
from repro.stats.metrics import MetricsSummary
from repro.stats.series import SweepSeries

__all__ = ["CampaignSpec", "CampaignOutcome", "CellRecord", "ObservedResult",
           "run_campaign", "run_spec"]

#: The file under ``campaign_dir`` holding the latest campaign telemetry.
SUMMARY_FILE = "summary.json"


@dataclass(frozen=True)
class CampaignSpec:
    """A sweep an experiment module exposes for campaign execution."""

    name: str
    run_one: Callable
    protocols: tuple
    xs: tuple
    seeds: tuple
    config: Any
    extra_kwargs: Mapping = field(default_factory=dict)


@dataclass
class CellRecord:
    """One settled cell: its identity, outcome, and how it got there."""

    key: str
    protocol: str
    x: float
    seed: int
    status: str                      # "done" | "quarantined"
    source: str = "run"              # "run" | "cache"
    summary: Optional[MetricsSummary] = None
    attempts: int = 1
    wall_s: float = 0.0
    error: str = ""


@dataclass
class CampaignOutcome:
    """Everything a campaign produced."""

    #: ``{protocol: SweepSeries}`` — identical to the serial sweep's.
    results: dict[str, SweepSeries]
    #: Machine-readable telemetry (see ``CampaignTelemetry.summary``).
    summary: dict
    #: Cells that exhausted their retries, excluded from ``results``.
    quarantined: list[CellFailure]
    #: Per-cell settlement records keyed by content address.
    records: dict[str, CellRecord]


def _cell_label(protocol: str, x, seed: int) -> str:
    return f"{protocol}/x={x:g}/seed={seed}"


def run_campaign(
    run_one: Callable,
    *,
    protocols: Sequence[str],
    xs: Sequence,
    seeds: Sequence[int],
    config: Any,
    runner_name: str | None = None,
    extra_kwargs: Mapping | None = None,
    cache_dir: str | os.PathLike | None = None,
    campaign_dir: str | os.PathLike | None = None,
    workers: int = 1,
    timeout_s: float | None = None,
    max_retries: int = 2,
    backoff_s: float = 0.05,
    observe: bool = False,
    progress: Callable[[ProgressEvent], None] | None = None,
) -> CampaignOutcome:
    """Settle the full grid and return results, telemetry, and quarantine.

    With no ``cache_dir`` this is a plain (serial or pooled) sweep with
    retry protection.  ``campaign_dir``, when given, receives the final
    telemetry as ``summary.json``.

    Cells that need execution run under
    :class:`~repro.campaign.executor.FaultTolerantExecutor` (serial when
    ``workers`` is 1), wrapped in
    :class:`~repro.campaign.executor.ObservedRunner` when ``observe`` is
    set; each result is published to the cache as it settles.
    """
    name = runner_name if runner_name is not None else runner_name_of(run_one)
    extra = dict(extra_kwargs or {})

    grid = [
        (protocol, x, seed,
         cell_key(name, protocol, x, seed, config, extra))
        for protocol in protocols
        for x in xs
        for seed in seeds
    ]
    telemetry = CampaignTelemetry(total=len(grid))
    from repro.obs.logging import get_logger
    log = get_logger("campaign").bind(campaign=name)

    def emit(source: str, protocol: str, x, seed: int,
             wall_s: float = 0.0) -> None:
        label = _cell_label(protocol, x, seed)
        log.info("cell_settled", cell=label, source=source,
                 completed=telemetry.completed, total=telemetry.total,
                 wall_s=round(wall_s, 3) if wall_s else None)
        if progress is not None:
            progress(telemetry.event(source, label, wall_s))

    cache = ResultCache(cache_dir) if cache_dir is not None else None

    records: dict[str, CellRecord] = {}
    quarantined: list[CellFailure] = []
    to_execute: list[Cell] = []

    for protocol, x, seed, key in grid:
        if key in records:  # duplicate grid coordinates share one settlement
            continue
        summary = cache.get(key) if cache is not None else None
        if summary is not None:
            records[key] = CellRecord(key=key, protocol=protocol, x=float(x),
                                      seed=int(seed), status="done",
                                      source="cache", summary=summary)
            telemetry.record("cache")
            emit("cache", protocol, x, seed)
            continue
        to_execute.append(Cell(key=key, protocol=protocol, x=x, seed=seed))

    if to_execute:
        def on_success(cell: Cell, result, attempts: int, wall_s: float):
            summary, obs_snapshot = split_observed(result)
            if cache is not None:
                cache.put_cell(cell, summary, runner=name, source="local-pool")
            if obs_snapshot is not None:
                telemetry.record_obs(obs_snapshot)
            records[cell.key] = CellRecord(
                key=cell.key, protocol=cell.protocol, x=float(cell.x),
                seed=int(cell.seed), status="done", source="run",
                summary=summary, attempts=attempts, wall_s=wall_s)
            telemetry.record("run", wall_s)
            emit("run", cell.protocol, cell.x, cell.seed, wall_s)

        def on_quarantine(failure: CellFailure):
            cell = failure.cell
            records[cell.key] = CellRecord(
                key=cell.key, protocol=cell.protocol, x=float(cell.x),
                seed=int(cell.seed), status="quarantined", source="run",
                attempts=failure.attempts, error=failure.error)
            quarantined.append(failure)
            telemetry.record("quarantined")
            emit("quarantined", cell.protocol, cell.x, cell.seed)

        def on_retry(cell: Cell, attempts: int, error: str):
            telemetry.record_retry()
            log.warning("cell_retry",
                        cell=_cell_label(cell.protocol, cell.x, cell.seed),
                        attempt=attempts, error=error)

        executor = FaultTolerantExecutor(
            ObservedRunner(run_one) if observe else run_one, config,
            extra_kwargs=extra,
            executor_config=ExecutorConfig(
                max_workers=max(1, workers), timeout_s=timeout_s,
                max_retries=max_retries, backoff_s=backoff_s),
            on_retry=on_retry,
        )
        executor.run(to_execute, on_success, on_quarantine)

    # Reassemble in canonical grid order — the serial runners' loop order —
    # so per-x sample lists (and thus means/stderrs) are bit-identical.
    results = {p: SweepSeries(p) for p in protocols}
    for protocol, x, seed, key in grid:
        record = records.get(key)
        if record is not None and record.status == "done":
            results[protocol].add(float(x), record.summary)

    summary = telemetry.summary()
    summary["runner"] = name
    summary["quarantined_cells"] = [
        {"protocol": f.cell.protocol, "x": float(f.cell.x),
         "seed": int(f.cell.seed), "attempts": f.attempts, "error": f.error}
        for f in quarantined
    ]
    if campaign_dir is not None:
        # `repro obs summary --campaign-dir DIR` (and any later tooling)
        # reads throughput and obs counters from here without a rerun.
        write_campaign_summary(
            summary, Path(campaign_dir).expanduser() / SUMMARY_FILE)
    return CampaignOutcome(results=results, summary=summary,
                           quarantined=quarantined, records=records)


def run_spec(spec: CampaignSpec, **kwargs) -> CampaignOutcome:
    """Run a :class:`CampaignSpec`; keyword arguments as for
    :func:`run_campaign`."""
    return run_campaign(
        spec.run_one,
        runner_name=spec.name,
        protocols=spec.protocols,
        xs=spec.xs,
        seeds=spec.seeds,
        config=spec.config,
        extra_kwargs=spec.extra_kwargs,
        **kwargs,
    )
