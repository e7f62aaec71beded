"""The unified result shape every experiment's ``run_one`` returns.

Historically each experiment module returned whatever its figure needed —
a bare :class:`~repro.stats.metrics.MetricsSummary` here, ad-hoc dicts in
scripts there.  :class:`ExperimentResult` replaces them all with one frozen
dataclass:

* ``metrics`` — the cell's measurements as a plain name→value mapping (the
  :data:`~repro.stats.metrics.MetricsSummary` fields today; fault-injection
  and energy metrics can join without a schema change),
* ``fingerprint`` — content address of the cell's config (the same
  :func:`repro.campaign.fingerprint.canonicalize` the cache keys use), so a
  result can always be traced back to the exact configuration that
  produced it,
* ``seed`` — the cell's RNG seed,
* ``wall_s`` — wall-clock execution time (``compare=False``: two
  bit-identical simulations are *equal* even though their wall clocks
  differ).

Read a measurement as ``result.metrics["delivery_ratio"]``, or take the
classic summary view with ``result.to_summary()``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.stats.metrics import MetricsSummary

__all__ = ["ExperimentResult", "config_fingerprint"]


def config_fingerprint(config: Any) -> str:
    """Content address of one experiment config (16 hex chars — enough to
    distinguish configs, short enough to eyeball in JSON exports)."""
    import hashlib
    import json

    from repro.campaign.fingerprint import canonicalize

    blob = json.dumps(canonicalize(config), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True, kw_only=True)
class ExperimentResult:
    """One sweep cell's outcome, in the shape every ``run_one`` returns."""

    metrics: Mapping[str, float]
    fingerprint: str = ""
    seed: int = 0
    wall_s: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "metrics", dict(self.metrics))

    # --------------------------------------------------------------- builders

    @classmethod
    def from_summary(cls, summary: MetricsSummary, *, config: Any = None,
                     seed: int = 0, wall_s: float = 0.0,
                     fingerprint: str | None = None,
                     **extra_metrics: float) -> "ExperimentResult":
        """Wrap a network's :class:`MetricsSummary`; ``config`` (or an
        explicit ``fingerprint``) stamps the configuration identity."""
        metrics = dict(dataclasses.asdict(summary))
        metrics.update(extra_metrics)
        if fingerprint is None:
            fingerprint = config_fingerprint(config) if config is not None else ""
        return cls(metrics=metrics, fingerprint=fingerprint,
                   seed=int(seed), wall_s=wall_s)

    def to_summary(self) -> MetricsSummary:
        """The classic summary view (drops any non-summary metrics)."""
        fields = {f.name for f in dataclasses.fields(MetricsSummary)}
        return MetricsSummary(**{k: v for k, v in self.metrics.items()
                                 if k in fields})

    # ------------------------------------------------------------------ wire

    def to_dict(self) -> dict:
        return {
            "__kind__": "experiment_result",
            "metrics": dict(self.metrics),
            "fingerprint": self.fingerprint,
            "seed": self.seed,
            "wall_s": self.wall_s,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExperimentResult":
        return cls(metrics=dict(payload["metrics"]),
                   fingerprint=str(payload.get("fingerprint", "")),
                   seed=int(payload.get("seed", 0)),
                   wall_s=float(payload.get("wall_s", 0.0)))
