"""Human- and machine-readable summaries of an observed run.

:func:`summarize` reduces one :class:`~repro.obs.observe.Observability` to
the report ``repro obs summary`` prints: per-reason drop counts (which sum
to the run's total drops by construction — both come from the same
ledger), the per-frame-kind transmission breakdown, stage tallies, and the
election-win backoff histogram.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.observe import Observability

__all__ = ["summarize", "format_summary", "format_campaign_summary"]


def _counter_samples(registry, name: str) -> dict[str, float]:
    family = registry.get(name)
    if family is None:
        return {}
    return {"/".join(json.loads(key)): value
            for key, value in family.describe()["samples"].items()}


def summarize(obs: "Observability") -> dict:
    """JSON-safe summary of one observed run."""
    ledger = obs.ledger
    drops = {reason.value: count
             for reason, count in sorted(ledger.drop_counts().items(),
                                         key=lambda kv: -kv[1])}
    stages = {stage.value: count
              for stage, count in sorted(ledger.stage_counts().items(),
                                         key=lambda kv: kv[0].value)}

    from repro.obs.registry import quantiles_from_sample

    def _percentiles(sample: dict) -> dict:
        estimates = quantiles_from_sample(sample, (0.5, 0.9, 0.99))
        return {"p50": estimates[0.5], "p90": estimates[0.9],
                "p99": estimates[0.99]}

    elections = {}
    family = obs.registry.get("repro_election_win_backoff_seconds")
    if family is not None:
        for key, sample in family.describe()["samples"].items():
            (protocol,) = json.loads(key)
            elections[protocol] = {
                "count": sample["count"],
                "mean_backoff_s": (sample["sum"] / sample["count"]
                                   if sample["count"] else 0.0),
                "buckets": sample["buckets"],
                "counts": sample["counts"],
                **_percentiles(sample),
            }

    delivery = None
    family = obs.registry.get("repro_delivery_delay_seconds")
    if family is not None:
        for _key, sample in family.describe()["samples"].items():
            delivery = {
                "count": sample["count"],
                "mean_s": (sample["sum"] / sample["count"]
                           if sample["count"] else 0.0),
                **_percentiles(sample),
            }
            break

    link_budget_bytes = None
    family = obs.registry.get("repro_channel_link_budget_bytes")
    if family is not None:
        for _key, value in family.describe()["samples"].items():
            # The gauge exists from construction; 0.0 means no channel
            # ever reported, so the summary omits the line entirely.
            link_budget_bytes = value if value > 0 else None
            break

    return {
        "delivery_delay": delivery,
        "link_budget_bytes": link_budget_bytes,
        "ledger_entries": len(ledger),
        "total_drops": ledger.total_drops(),
        "drops_by_reason": drops,
        "stages": stages,
        "tx_by_kind": _counter_samples(obs.registry, "repro_tx_frames_total"),
        "airtime_by_kind": _counter_samples(obs.registry,
                                            "repro_airtime_seconds_total"),
        "election_wins": elections,
    }


def format_campaign_summary(summary: dict) -> str:
    """Render a campaign telemetry summary (``summary.json`` from the
    campaign directory) — settlement counts and wall-time percentiles."""
    lines: list[str] = []
    runner = summary.get("runner", "?")
    lines.append(f"campaign: {runner}")
    lines.append(
        f"cells: {summary.get('completed', 0)}/{summary.get('total_cells', 0)}"
        f" (executed {summary.get('executed', 0)}, cache hits "
        f"{summary.get('cache_hits', 0)}, quarantined "
        f"{summary.get('quarantined', 0)})")
    wall = summary.get("cell_wall_s") or {}
    if wall.get("count"):
        lines.append(
            f"cell wall: mean {wall['mean']:.2f}s  p50 {wall['p50']:.2f}s  "
            f"p90 {wall['p90']:.2f}s  p99 {wall['p99']:.2f}s "
            f"({wall['count']} executed)")

    return "\n".join(lines)


def _bar(value: int, peak: int, width: int = 30) -> str:
    filled = round(width * value / peak) if peak else 0
    return "#" * filled


def format_summary(summary: dict) -> str:
    """Render :func:`summarize` output as the CLI report."""
    lines: list[str] = []
    lines.append(f"ledger entries: {summary['ledger_entries']}")
    link_budget = summary.get("link_budget_bytes")
    if link_budget is not None:
        lines.append(
            f"channel link budget: {link_budget / 1e6:.2f} MB peak")

    lines.append(f"\ndrops: {summary['total_drops']} total")
    drops = summary["drops_by_reason"]
    peak = max(drops.values(), default=0)
    for reason, count in drops.items():
        lines.append(f"  {reason:<18} {count:>8}  {_bar(count, peak)}")
    if not drops:
        lines.append("  (none)")

    lines.append("\ntransmissions by frame kind:")
    tx = dict(sorted(summary["tx_by_kind"].items(), key=lambda kv: -kv[1]))
    peak = max(tx.values(), default=0)
    airtime = summary.get("airtime_by_kind", {})
    for kind, count in tx.items():
        air = airtime.get(kind, 0.0)
        lines.append(f"  {kind:<18} {count:>8.0f}  air {air:>8.4f}s  "
                     f"{_bar(count, peak)}")
    if not tx:
        lines.append("  (none)")

    lines.append("\nlifecycle stages:")
    for stage, count in summary["stages"].items():
        lines.append(f"  {stage:<18} {count:>8}")

    delivery = summary.get("delivery_delay")
    if delivery and delivery["count"]:
        lines.append(
            f"\ndelivery delay: {delivery['count']} delivered, mean "
            f"{delivery['mean_s'] * 1e3:.2f} ms  "
            f"p50 {delivery['p50'] * 1e3:.2f} ms  "
            f"p90 {delivery['p90'] * 1e3:.2f} ms  "
            f"p99 {delivery['p99'] * 1e3:.2f} ms")

    for protocol, hist in summary["election_wins"].items():
        lines.append(f"\nelection-win backoff ({protocol}): "
                     f"{hist['count']} wins, mean "
                     f"{hist['mean_backoff_s'] * 1e3:.2f} ms")
        if hist["count"] and hist.get("p50") is not None:
            lines.append(
                f"  p50 {hist['p50'] * 1e3:.2f} ms  "
                f"p90 {hist['p90'] * 1e3:.2f} ms  "
                f"p99 {hist['p99'] * 1e3:.2f} ms")
        peak = max(hist["counts"], default=0)
        bounds = hist["buckets"]
        for i, count in enumerate(hist["counts"]):
            if count == 0:
                continue
            label = (f"<= {bounds[i] * 1e3:g} ms" if i < len(bounds)
                     else f"> {bounds[-1] * 1e3:g} ms")
            lines.append(f"  {label:<14} {count:>8}  {_bar(count, peak)}")
    return "\n".join(lines)
