"""Campaign orchestration: cache + journal + fault-tolerant execution.

:func:`run_campaign` is the one entry point.  Given the same
``run_one(protocol, x, seed, config, **extra)`` callable the serial runners
use, it settles every cell of the (protocol × x × seed) grid through a
three-level lookup:

1. **journal** — on ``resume=True``, cells already settled in the campaign
   directory's journal are replayed without touching the cache or pool;
2. **cache** — cells whose content address is present in the result cache
   are hits, recorded to the journal, never executed;
3. **execution** — everything else runs in the local process pool under
   the fault-tolerant executor (timeouts, retries, pool recovery,
   quarantine), and each result is published to the cache.

Results are reassembled in canonical grid order — the exact nested-loop
order the serial runners use — so the returned ``{protocol: SweepSeries}``
is bit-identical to an uninterrupted, uncached serial sweep regardless of
completion order, cache state, or how many times the campaign was killed
and resumed along the way.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

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
from repro.campaign.fingerprint import (
    campaign_fingerprint,
    cell_key,
    runner_name_of,
)
from repro.campaign.journal import CampaignJournal, CellRecord
from repro.campaign.telemetry import CampaignTelemetry, ProgressEvent
from repro.stats.series import SweepSeries

__all__ = ["CampaignSpec", "CampaignOutcome", "ObservedResult",
           "run_campaign", "run_spec"]


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
    resume: bool = False,
    workers: int = 1,
    timeout_s: float | None = None,
    max_retries: int = 2,
    backoff_s: float = 0.05,
    observe: bool = False,
    progress: Callable[[ProgressEvent], None] | None = None,
) -> CampaignOutcome:
    """Settle the full grid and return results, telemetry, and quarantine.

    With no ``cache_dir``/``campaign_dir`` this degrades to a plain
    (serial or pooled) sweep with retry protection — the migration path for
    the figure runners costs nothing when durability isn't requested.

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

    journal: CampaignJournal | None = None
    settled: dict[str, CellRecord] = {}
    if campaign_dir is not None:
        journal = CampaignJournal(campaign_dir)
        manifest = {
            "fingerprint": campaign_fingerprint(name, protocols, xs, seeds,
                                                config, extra),
            "runner": name,
            "protocols": list(protocols),
            "xs": [float(x) for x in xs],
            "seeds": [int(s) for s in seeds],
            "total_cells": len(grid),
            "created_at": time.time(),
        }
        if resume:
            journal.ensure_manifest(manifest, resume=True)
            # Quarantined cells get a fresh chance on resume; only cleanly
            # settled cells are replayed.
            settled = {k: r for k, r in journal.load().items()
                       if r.status == "done"}
        else:
            journal.reset()
            journal.write_manifest(manifest)

    cache = ResultCache(cache_dir) if cache_dir is not None else None

    records: dict[str, CellRecord] = {}
    quarantined: list[CellFailure] = []
    to_execute: list[Cell] = []

    for protocol, x, seed, key in grid:
        if key in records:  # duplicate grid coordinates share one settlement
            continue
        if key in settled:
            records[key] = settled[key]
            telemetry.record("journal")
            emit("journal", protocol, x, seed)
            continue
        summary = cache.get(key) if cache is not None else None
        if summary is not None:
            record = CellRecord(key=key, protocol=protocol, x=float(x),
                                seed=int(seed), status="done", source="cache",
                                summary=summary)
            records[key] = record
            if journal is not None:
                journal.append(record)
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
            record = CellRecord(key=cell.key, protocol=cell.protocol,
                                x=float(cell.x), seed=int(cell.seed),
                                status="done", source="run", summary=summary,
                                attempts=attempts, wall_s=wall_s)
            records[cell.key] = record
            if journal is not None:
                journal.append(record)
            telemetry.record("run", wall_s)
            emit("run", cell.protocol, cell.x, cell.seed, wall_s)

        def on_quarantine(failure: CellFailure):
            cell = failure.cell
            record = CellRecord(key=cell.key, protocol=cell.protocol,
                                x=float(cell.x), seed=int(cell.seed),
                                status="quarantined", source="run",
                                attempts=failure.attempts,
                                error=failure.error)
            records[cell.key] = record
            quarantined.append(failure)
            if journal is not None:
                journal.append(record)
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
    if journal is not None:
        # Durable campaigns keep their latest telemetry next to the journal
        # so `repro obs summary --campaign-dir DIR` (and any later tooling)
        # can read throughput and obs counters without a rerun.
        journal.write_summary(summary)
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
