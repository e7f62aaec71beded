"""Structured tracing for simulations.

Components emit ``(time, source, kind, detail)`` records through a
:class:`Tracer`.  Tracing is off by default and costs one predicate call per
emission when disabled, so protocol code can trace unconditionally.

Hot-path call sites (channel transmit, radio RX/TX, MAC access) should not
even pay for *building* the trace arguments — ``str(frame)`` and the kwargs
dict dominate the cost when tracing is off.  Those sites gate emission
behind the cheap :attr:`repro.sim.components.SimContext.tracing` flag::

    if self.ctx.tracing:
        self.trace("radio.tx", frame=str(frame), duration=duration)

so a disabled tracer is truly zero-cost: one attribute read, no argument
construction, no call.  The flag is a plain attribute copied from
:attr:`Tracer.enabled` when the context is built; toggling ``enabled``
afterwards pauses :meth:`Tracer.emit` but does not reach the hot-path
gates.

Traces back two things in this reproduction:

* debugging protocol state machines (the integration tests assert on traces
  where externally visible metrics would under-constrain the behaviour);
* the Figure 2 visualization, which needs the actual per-packet relay path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = ["TraceRecord", "Tracer", "NullTracer"]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    time: float
    source: str
    kind: str
    detail: dict[str, Any]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        fields = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:12.6f}] {self.source:<16} {self.kind:<20} {fields}"


class Tracer:
    """Collects trace records, optionally filtered by kind."""

    def __init__(self, kinds: set[str] | None = None, sink: Callable[[TraceRecord], None] | None = None):
        self.records: list[TraceRecord] = []
        self._kinds = kinds
        self._sink = sink
        self.enabled = True

    def emit(self, time: float, source: str, kind: str, **detail: Any) -> None:
        if not self.enabled:
            return
        if self._kinds is not None and kind not in self._kinds:
            return
        record = TraceRecord(time, source, kind, detail)
        self.records.append(record)
        if self._sink is not None:
            self._sink(record)

    def of_kind(self, kind: str) -> Iterator[TraceRecord]:
        return (r for r in self.records if r.kind == kind)

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)


class NullTracer(Tracer):
    """A tracer that drops everything; the default for production runs."""

    def __init__(self) -> None:
        super().__init__()
        self.enabled = False

    def emit(self, time: float, source: str, kind: str, **detail: Any) -> None:
        return
