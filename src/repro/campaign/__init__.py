"""Cached, fault-tolerant experiment campaigns.

Every figure in the paper is a (protocol × x × seed) grid of independent
single-threaded runs.  This package turns one-shot sweeps into
*campaigns*:

* :mod:`repro.campaign.fingerprint` — stable content addressing: every cell
  is keyed by a hash of (runner name, protocol, x, seed, config fields,
  model source), so identical work is recognized across invocations and
  any config or model change invalidates exactly the cells it affects;
* :mod:`repro.campaign.cache` — an on-disk result store addressed by those
  keys and the only store a campaign reads back: re-running an identical
  sweep is a near-instant cache hit, and a killed campaign re-run on the
  same cache executes only the cells that had not settled;
* :mod:`repro.campaign.executor` — a fault-tolerant layer over the process
  pool: per-cell timeouts, bounded retry with backoff,
  ``BrokenProcessPool`` recovery, and quarantine of persistently failing
  cells (reported, never fatal to their neighbours).  It is the one retry
  loop: campaigns and the serving daemon both run cells through it;
* :mod:`repro.campaign.telemetry` — per-cell wall time, cells/sec, ETA,
  cache-hit ratio and retry counts, surfaced through a progress callback
  and a machine-readable summary.

Usage::

    from repro.campaign import run_campaign
    from repro.experiments.fig1_ssaf import Fig1Config, run_one

    config = Fig1Config.active()
    outcome = run_campaign(
        run_one,
        runner_name="fig1",
        protocols=config.protocols,
        xs=config.intervals_s,
        seeds=config.seeds,
        config=config,
        cache_dir="~/.cache/repro",
        campaign_dir="campaigns/fig1",   # receives summary.json
        workers=4,
    )
    results = outcome.results          # {protocol: SweepSeries}
    print(outcome.summary)             # telemetry dict
"""

from repro.campaign.cache import ResultCache
from repro.campaign.executor import CellFailure, ExecutorConfig, FaultTolerantExecutor
from repro.campaign.fingerprint import canonicalize, cell_key
from repro.campaign.runner import (
    CampaignOutcome,
    CampaignSpec,
    CellRecord,
    ObservedResult,
    run_campaign,
    run_spec,
)
from repro.campaign.telemetry import CampaignTelemetry, ProgressEvent

__all__ = [
    "CampaignOutcome",
    "CampaignSpec",
    "CampaignTelemetry",
    "CellFailure",
    "CellRecord",
    "ExecutorConfig",
    "FaultTolerantExecutor",
    "ObservedResult",
    "ProgressEvent",
    "ResultCache",
    "canonicalize",
    "cell_key",
    "run_campaign",
    "run_spec",
]
