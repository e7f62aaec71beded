"""Content-addressed on-disk result cache.

Layout mirrors git's object store: ``<root>/<key[:2]>/<key[2:]>.json``, one
file per cell result, sharded by the first byte of the key so directories
stay small even for campaigns of hundreds of thousands of cells.  Each entry
stores the :class:`~repro.stats.metrics.MetricsSummary` fields verbatim
(floats survive JSON exactly via shortest-round-trip repr) plus enough
metadata to audit where it came from.

Writes are atomic and durable (temp file, fsync, ``os.replace``) so a
killed run never leaves a torn entry, and concurrent writers of the same
key are idempotent — they write identical bytes.  The cache is the only
store a campaign reads back: a killed campaign re-run on the same cache
executes only the cells that had not settled.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path
from typing import Optional

from repro.stats.export import write_atomic
from repro.stats.metrics import MetricsSummary

__all__ = ["ResultCache", "summary_to_dict", "summary_from_dict"]


def summary_to_dict(summary) -> dict:
    """Serialize a cell result — a classic :class:`MetricsSummary` (plain
    field dict, the historical on-disk form) or an
    :class:`~repro.experiments.result.ExperimentResult` (tagged dict)."""
    if hasattr(summary, "to_dict"):  # ExperimentResult, duck-typed to avoid
        return summary.to_dict()     # a campaign → experiments import cycle
    return dataclasses.asdict(summary)


def summary_from_dict(payload: dict):
    """Inverse of :func:`summary_to_dict`; untagged payloads are classic
    summaries, so caches written before ExperimentResult existed still load."""
    if payload.get("__kind__") == "experiment_result":
        from repro.experiments.result import ExperimentResult
        return ExperimentResult.from_dict(payload)
    fields = {f.name for f in dataclasses.fields(MetricsSummary)}
    return MetricsSummary(**{k: v for k, v in payload.items() if k in fields})


class ResultCache:
    """Get/put of cell results keyed by their content address."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Entries that existed on disk but could not be decoded; each is
        #: also counted as a miss and quarantined out of the store.
        self.malformed = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key[2:]}.json"

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (``.corrupt``) so the next get is a
        clean miss and the bytes stay around for forensics; a plain unlink
        if even the rename fails."""
        self.malformed += 1
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass

    def get(self, key: str) -> Optional[MetricsSummary]:
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
        except OSError:
            self.misses += 1
            return None
        except ValueError:
            # On-disk bytes that aren't JSON: the atomic publish means this
            # was never a torn write — the entry itself is corrupt.
            self.misses += 1
            self._quarantine(path)
            return None
        try:
            summary = summary_from_dict(payload["summary"])
        except (KeyError, TypeError, ValueError, AttributeError):
            # Valid JSON but not a cache entry (missing "summary", wrong
            # shape, bad field types): a miss, not a crash in the read path.
            self.misses += 1
            self._quarantine(path)
            return None
        self.hits += 1
        return summary

    def put(self, key: str, summary: MetricsSummary, meta: dict | None = None) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": key,
            "summary": summary_to_dict(summary),
            "created_at": time.time(),
        }
        if meta:
            payload["meta"] = meta
        # A reader sees either nothing or the full entry, also after a crash.
        write_atomic(path, json.dumps(payload, sort_keys=True, indent=1)
                     + "\n")

    def put_cell(self, cell, summary: MetricsSummary, *, runner: str,
                 source: str) -> None:
        """Publish a settled cell's result.

        The one cache write of both execution paths — campaigns
        (``source="local-pool"``) and the serving daemon (``"serve"``) — so
        every entry carries the same audit meta.  ``cell`` is anything with ``key``/``protocol``/``x``/
        ``seed`` attributes.
        """
        self.put(cell.key, summary, meta={
            "runner": runner, "protocol": cell.protocol,
            "x": float(cell.x), "seed": int(cell.seed), "source": source})

    # ------------------------------------------------------------ reporting

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def entry_count(self) -> int:
        """Number of entries on disk (walks the store; for tooling/tests)."""
        return sum(1 for _ in self.root.glob("??/*.json"))

    def stats(self) -> dict:
        """Operational snapshot: on-disk shape plus this process's counters
        (the ``repro cache stats`` / ``GET /v1/stats`` payload)."""
        entries = 0
        size_bytes = 0
        quarantined = 0
        for path in self.root.glob("??/*"):
            try:
                size = path.stat().st_size
            except OSError:  # racing a concurrent gc/quarantine
                continue
            if path.suffix == ".json":
                entries += 1
                size_bytes += size
            elif path.suffix == ".corrupt":
                quarantined += 1
        return {
            "root": str(self.root),
            "entries": entries,
            "size_bytes": size_bytes,
            "quarantined_files": quarantined,
            "hits": self.hits,
            "misses": self.misses,
            "malformed": self.malformed,
            "hit_ratio": self.hit_ratio,
        }

    def gc(self, older_than_s: float, *, now: float | None = None) -> dict:
        """Remove entries whose mtime is more than ``older_than_s`` seconds
        old (quarantined ``.corrupt`` files are always collected).
        Returns ``{"removed": n, "freed_bytes": n, "kept": n}``."""
        cutoff = (time.time() if now is None else now) - older_than_s
        removed = freed = kept = 0
        for path in self.root.glob("??/*"):
            if path.suffix not in (".json", ".corrupt"):
                continue
            try:
                stat = path.stat()
                if path.suffix == ".corrupt" or stat.st_mtime < cutoff:
                    os.unlink(path)
                    removed += 1
                    freed += stat.st_size
                else:
                    kept += 1
            except OSError:  # already gone: a concurrent gc won the race
                continue
        return {"removed": removed, "freed_bytes": freed, "kept": kept}
