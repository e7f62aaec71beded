"""Labeled metrics primitives and the process-wide registry.

Prometheus-shaped, simulation-sized: :class:`Counter`, :class:`Gauge` and
:class:`Histogram` families carry a fixed tuple of label names; calling
``labels(...)`` resolves (and memoizes) one child per label-value
combination, so hot paths can hold a child and pay a single attribute
update per event.

Collection is zero-cost when off: instrumented code never talks to the
registry directly — it checks the cheap
:attr:`repro.sim.components.SimContext.observing` flag first, so with no
observability attached no labels are built and no call is made.

Two APIs exist because campaign workers run in separate processes:

* :meth:`MetricsRegistry.snapshot` — a plain JSON-safe dict of every
  family and child value, cheap to pickle across a process boundary;
* :meth:`MetricsRegistry.merge_snapshot` / :func:`merge_snapshots` — fold
  snapshots together (counters and histogram buckets add, gauges keep the
  extremum) so N workers' registries collapse into one campaign-level view.
"""

from __future__ import annotations

import bisect
import json
from typing import Iterable, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "merge_snapshots",
    "quantiles_from_sample",
]

#: Default histogram buckets (seconds): µs-scale MAC access through
#: multi-second end-to-end delays.
DEFAULT_BUCKETS = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _label_key(values: Sequence) -> str:
    """Stable, JSON-safe key for one label-value combination."""
    return json.dumps([str(v) for v in values])


class _Family:
    """Shared machinery: a named metric with labeled children."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple, "_Family"] = {}

    def labels(self, *values, **kv):
        """The child for one label-value combination (created on first use)."""
        if kv:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            values = tuple(kv[name] for name in self.labelnames)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, got {values!r}")
        values = tuple(str(v) for v in values)
        child = self._children.get(values)
        if child is None:
            child = self._make_child()
            self._children[values] = child
        return child

    def _make_child(self):
        raise NotImplementedError

    def _sample_items(self) -> Iterable[tuple[str, object]]:
        if self.labelnames:
            for values, child in self._children.items():
                yield _label_key(values), child._own_sample()
        else:
            yield _label_key(()), self._own_sample()

    def _own_sample(self):
        raise NotImplementedError

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "samples": dict(self._sample_items()),
        }


class Counter(_Family):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self.value = 0.0

    def _make_child(self) -> "Counter":
        return Counter(self.name)

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def _own_sample(self) -> float:
        return self.value


class Gauge(_Family):
    """A value that can move both ways; merging keeps the maximum."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self.value = 0.0

    def _make_child(self) -> "Gauge":
        return Gauge(self.name)

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def set_max(self, value: float) -> None:
        """High-watermark update (queue depths, backlog peaks)."""
        if value > self.value:
            self.value = float(value)

    def _own_sample(self) -> float:
        return self.value


class Histogram(_Family):
    """Fixed-bucket histogram (cumulative counts, like Prometheus)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        # counts[i] = observations <= buckets[i]; counts[-1] = overflow
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, buckets=self.buckets)

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def quantiles(self, qs: Sequence[float] = (0.5, 0.9, 0.99)
                  ) -> dict[float, float | None]:
        """Bucket-interpolated quantile estimates (see
        :func:`quantiles_from_sample`)."""
        return quantiles_from_sample(self._own_sample(), qs)

    def _own_sample(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


def quantiles_from_sample(sample: dict, qs: Sequence[float] = (0.5, 0.9, 0.99)
                          ) -> dict[float, float | None]:
    """Quantile estimates from a histogram sample dict (the snapshot form:
    ``{"buckets", "counts", "sum", "count"}``).

    Linear interpolation within the containing bucket — the same estimator
    Prometheus's ``histogram_quantile`` uses: a quantile landing in the
    overflow (``+Inf``) bucket reports the highest finite bound, and the
    lower edge of the first bucket is taken as 0 (observations are
    non-negative durations/counts throughout this codebase).  An empty
    histogram maps every quantile to ``None``.
    """
    buckets = list(sample["buckets"])
    counts = list(sample["counts"])
    total = sample["count"]
    if total <= 0:
        return {q: None for q in qs}
    cumulative: list[int] = []
    running = 0
    for c in counts[: len(buckets)]:
        running += c
        cumulative.append(running)
    out: dict[float, float | None] = {}
    for q in qs:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} outside [0, 1]")
        rank = q * total
        idx = bisect.bisect_left(cumulative, rank)
        while idx < len(buckets) and cumulative[idx] < rank:
            idx += 1  # float bisect edge: ensure cumulative[idx] >= rank
        if idx >= len(buckets):
            out[q] = float(buckets[-1])
            continue
        upper = float(buckets[idx])
        lower = float(buckets[idx - 1]) if idx > 0 else 0.0
        prev_cum = cumulative[idx - 1] if idx > 0 else 0
        in_bucket = cumulative[idx] - prev_cum
        if in_bucket <= 0:
            out[q] = upper
        else:
            out[q] = lower + (upper - lower) * (rank - prev_cum) / in_bucket
    return out


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Every metric family of one process (or one simulation run).

    Instrumented simulation code reaches it only behind
    ``SimContext.observing``, which is false when no
    :class:`~repro.obs.observe.Observability` is attached.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    # ------------------------------------------------------------- creation

    def _register(self, cls, name: str, help: str, labelnames: Sequence[str],
                  **kwargs) -> _Family:
        family = self._families.get(name)
        if family is not None:
            if type(family) is not cls or family.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {family.labelnames}")
            return family
        family = cls(name, help, labelnames, **kwargs)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, labelnames, buckets=buckets)

    # -------------------------------------------------------------- queries

    def get(self, name: str) -> _Family | None:
        return self._families.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __len__(self) -> int:
        return len(self._families)

    def clear(self) -> None:
        self._families.clear()

    # ---------------------------------------------------- snapshot & merge

    def snapshot(self) -> dict:
        """JSON-safe dump of every family: ``{name: describe()}``."""
        return {name: family.describe()
                for name, family in sorted(self._families.items())}

    def merge_snapshot(self, snap: dict) -> None:
        """Fold one :meth:`snapshot` into this registry.

        Counters and histogram buckets add; gauges keep the maximum (the
        only merge with a meaning across runs — high watermarks survive).
        """
        for name, desc in snap.items():
            cls = _KINDS.get(desc.get("kind"))
            if cls is None:
                raise ValueError(f"snapshot entry {name!r} has unknown kind "
                                 f"{desc.get('kind')!r}")
            labelnames = tuple(desc.get("labelnames", ()))
            if cls is Histogram:
                buckets = None
                for sample in desc["samples"].values():
                    buckets = sample["buckets"]
                    break
                family = self._register(
                    cls, name, desc.get("help", ""), labelnames,
                    buckets=tuple(buckets) if buckets else DEFAULT_BUCKETS)
            else:
                family = self._register(cls, name, desc.get("help", ""), labelnames)
            for key, sample in desc["samples"].items():
                values = tuple(json.loads(key))
                child = family.labels(*values) if labelnames else family
                if cls is Counter:
                    child.value += float(sample)
                elif cls is Gauge:
                    child.set_max(float(sample))
                else:
                    if tuple(sample["buckets"]) != child.buckets:
                        raise ValueError(
                            f"histogram {name!r} bucket mismatch in merge")
                    for i, c in enumerate(sample["counts"]):
                        child.counts[i] += c
                    child.sum += sample["sum"]
                    child.count += sample["count"]


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Fold worker snapshots into one combined snapshot (order-insensitive
    for counters and histograms; gauges keep the maximum)."""
    merged = MetricsRegistry()
    for snap in snapshots:
        merged.merge_snapshot(snap)
    return merged.snapshot()


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide default registry (one per campaign worker)."""
    return _GLOBAL
