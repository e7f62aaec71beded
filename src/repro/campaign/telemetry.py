"""Run telemetry for campaigns.

Tracks, as cells settle: how many came from the cache versus fresh
execution, per-cell wall times, retry and quarantine counts, throughput
(cells/sec over *executed* cells) and a naive-but-useful ETA (remaining
cells at the observed rate, with cache hits counted as free).

Two consumers:

* a **progress callback** — :class:`ProgressEvent` snapshots pushed after
  every settled cell, cheap enough for a TTY progress line;
* a **machine-readable summary** — :meth:`CampaignTelemetry.summary`, a
  plain dict exported via :func:`repro.stats.export.write_campaign_summary`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["CampaignTelemetry", "ProgressEvent"]


@dataclass(frozen=True)
class ProgressEvent:
    """One settled cell's view of the whole campaign."""

    completed: int
    total: int
    executed: int
    cache_hits: int
    retries: int
    quarantined: int
    elapsed_s: float
    cells_per_sec: float
    eta_s: Optional[float]
    cache_hit_ratio: float
    #: What just settled: "run" | "cache" | "quarantined".
    last_source: str = "run"
    last_cell: str = ""
    last_wall_s: float = 0.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        eta = f"{self.eta_s:.0f}s" if self.eta_s is not None else "?"
        return (
            f"[{self.completed}/{self.total}] "
            f"{self.cells_per_sec:.2f} cells/s eta={eta} "
            f"cache={self.cache_hit_ratio:.0%} retries={self.retries} "
            f"quarantined={self.quarantined} ({self.last_source} "
            f"{self.last_cell} {self.last_wall_s:.2f}s)"
        )


class CampaignTelemetry:
    """Accumulates per-cell outcomes into progress events and a summary."""

    def __init__(self, total: int):
        self.total = total
        self.started_at = time.monotonic()
        self.executed = 0
        self.cache_hits = 0
        self.retries = 0
        self.quarantined = 0
        self.wall_times: list[float] = []
        #: Registry accumulating observed cells' metrics (see
        #: :meth:`record_obs`); ``None`` until the first snapshot arrives.
        self._obs_registry = None
        self.obs_cells = 0

    # ------------------------------------------------------------ recording

    def record(self, source: str, wall_s: float = 0.0) -> None:
        if source == "run":
            self.executed += 1
            self.wall_times.append(wall_s)
        elif source == "cache":
            self.cache_hits += 1
        elif source == "quarantined":
            self.quarantined += 1
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown cell source {source!r}")

    def record_retry(self) -> None:
        self.retries += 1

    def record_obs(self, snapshot: dict) -> None:
        """Fold one observed cell's metrics-registry snapshot into the
        campaign-wide aggregate (counters sum, gauges keep the max)."""
        from repro.obs.registry import MetricsRegistry
        if self._obs_registry is None:
            self._obs_registry = MetricsRegistry()
        self._obs_registry.merge_snapshot(snapshot)
        self.obs_cells += 1

    @property
    def obs_snapshot(self) -> Optional[dict]:
        """The merged metrics snapshot over every observed cell."""
        return (self._obs_registry.snapshot()
                if self._obs_registry is not None else None)

    # ------------------------------------------------------------ snapshots

    @property
    def completed(self) -> int:
        return self.executed + self.cache_hits + self.quarantined

    @property
    def elapsed_s(self) -> float:
        return time.monotonic() - self.started_at

    @property
    def cache_hit_ratio(self) -> float:
        """Cache hits over cells that *could* have hit (hits + executions)."""
        denom = self.cache_hits + self.executed
        return self.cache_hits / denom if denom else 0.0

    @property
    def cells_per_sec(self) -> float:
        elapsed = self.elapsed_s
        return self.completed / elapsed if elapsed > 0 else 0.0

    def eta_s(self) -> Optional[float]:
        """Remaining executed-cell work at the observed mean cell wall time."""
        remaining = self.total - self.completed
        if remaining <= 0:
            return 0.0
        if not self.wall_times:
            return None
        mean_wall = sum(self.wall_times) / len(self.wall_times)
        return remaining * mean_wall

    def event(self, source: str, cell_label: str = "",
              wall_s: float = 0.0) -> ProgressEvent:
        return ProgressEvent(
            completed=self.completed,
            total=self.total,
            executed=self.executed,
            cache_hits=self.cache_hits,
            retries=self.retries,
            quarantined=self.quarantined,
            elapsed_s=self.elapsed_s,
            cells_per_sec=self.cells_per_sec,
            eta_s=self.eta_s(),
            cache_hit_ratio=self.cache_hit_ratio,
            last_source=source,
            last_cell=cell_label,
            last_wall_s=wall_s,
        )

    @staticmethod
    def _percentile(walls: list, q: float) -> float:
        """Nearest-rank percentile of a pre-sorted sample (p50 at q=0.5
        matches the historical ``walls[len // 2]``)."""
        if not walls:
            return 0.0
        return walls[min(len(walls) - 1, int(q * len(walls)))]

    def summary(self) -> dict:
        """Machine-readable campaign summary (JSON-safe)."""
        walls = sorted(self.wall_times)
        obs = ({"cells_observed": self.obs_cells,
                "metrics": self.obs_snapshot}
               if self._obs_registry is not None else None)
        return {
            "obs": obs,
            "total_cells": self.total,
            "completed": self.completed,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "retries": self.retries,
            "quarantined": self.quarantined,
            "elapsed_s": self.elapsed_s,
            "cells_per_sec": self.cells_per_sec,
            "cache_hit_ratio": self.cache_hit_ratio,
            "cell_wall_s": {
                "count": len(walls),
                "mean": sum(walls) / len(walls) if walls else 0.0,
                "min": walls[0] if walls else 0.0,
                "max": walls[-1] if walls else 0.0,
                "p50": self._percentile(walls, 0.50),
                "p90": self._percentile(walls, 0.90),
                "p99": self._percentile(walls, 0.99),
                "total": sum(walls),
            },
        }
