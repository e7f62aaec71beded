"""Two-lane admission control and execution for the serving daemon.

Two lanes, each a bounded :class:`asyncio.Queue` drained by its own worker
tasks:

* **interactive** — small cells (estimated cost under the configured
  threshold); sized for latency.
* **batch** — sweep-sized cells; sized for throughput.  A full batch lane
  can never starve interactive requests, because admission and workers are
  per-lane.

A full lane refuses admission with :class:`AdmissionFull`, which the server
maps to HTTP 429 plus a ``Retry-After`` estimated from the lane's queue
depth and its observed per-cell wall time.

Cells execute through the campaign subsystem's code, the same code
campaigns run:
:class:`~repro.campaign.executor.FaultTolerantExecutor` in serial mode (in a
worker thread via :func:`asyncio.to_thread`) for retry and quarantine,
:class:`~repro.campaign.executor.ObservedRunner` for the per-cell obs
bundle, and :meth:`~repro.campaign.cache.ResultCache.put_cell` to publish
every fresh result to the shared cache under its campaign-identical key.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Optional

from repro.campaign.cache import ResultCache
from repro.campaign.cache import summary_to_dict
from repro.campaign.executor import (
    Cell,
    ExecutorConfig,
    FaultTolerantExecutor,
    ObservedRunner,
    split_observed,
)
from repro.obs.logging import get_logger
from repro.obs.spans import Span, SpanSink
from repro.serve.singleflight import Flight, FlightRegistry

__all__ = ["AdmissionFull", "Lane", "LaneScheduler"]

#: Fallback per-cell wall-time guess before a lane has finished anything.
_DEFAULT_WALL_S = 5.0


class AdmissionFull(Exception):
    """Lane queue at capacity; carries the Retry-After estimate."""

    def __init__(self, lane: str, retry_after_s: int):
        super().__init__(f"{lane} lane full; retry after {retry_after_s}s")
        self.lane = lane
        self.retry_after_s = retry_after_s


class _AttemptSpans:
    """Traced flights only: each executor attempt records an ``attempt``
    span (executor category, covering the obs bundle's setup and snapshot)
    with a nested ``sim.run`` span around the simulation itself."""

    def __init__(self, run_one, *, observe: bool, flight: Flight,
                 sink: SpanSink, parent_id: str):
        self.run_one = run_one
        self.flight = flight
        self.sink = sink
        self.parent_id = parent_id
        self.attempts = 0
        self._attempt_span: Optional[Span] = None
        self._body = ObservedRunner(self._sim_run) if observe else self._sim_run

    def __call__(self, protocol, x, seed, config, **extra):
        self.attempts += 1
        span = self._attempt_span = Span(
            "attempt", trace_id=self.flight.trace_id,
            parent_id=self.parent_id, category="executor",
            attrs={"attempt": self.attempts, "key": self.flight.key})
        try:
            result = self._body(protocol, x, seed, config, **extra)
        except BaseException:
            span.finish(self.sink, ok=False)
            raise
        span.finish(self.sink, ok=True)
        return result

    def _sim_run(self, protocol, x, seed, config, **extra):
        span = Span("sim.run", trace_id=self.flight.trace_id,
                    parent_id=self._attempt_span.span_id, category="sim",
                    attrs={"protocol": str(protocol), "x": float(x),
                           "seed": int(seed)})
        try:
            summary = self.run_one(protocol, x, seed, config, **extra)
        except BaseException as exc:
            span.finish(self.sink, error=repr(exc))
            raise
        span.finish(self.sink)
        return summary


class Lane:
    """One admission queue plus its drain workers' bookkeeping."""

    def __init__(self, name: str, queue_limit: int, workers: int):
        self.name = name
        self.queue: asyncio.Queue[Flight] = asyncio.Queue(maxsize=queue_limit)
        self.workers = max(1, workers)
        self.executed = 0
        self.failed = 0
        self._wall_ema: Optional[float] = None

    def note_wall(self, wall_s: float) -> None:
        ema = self._wall_ema
        self._wall_ema = wall_s if ema is None else 0.7 * ema + 0.3 * wall_s

    @property
    def avg_wall_s(self) -> float:
        return self._wall_ema if self._wall_ema is not None else _DEFAULT_WALL_S

    def retry_after_s(self) -> int:
        """Seconds until a slot plausibly frees: queue drain time at the
        observed rate, clamped to something a client can actually honour."""
        estimate = (self.queue.qsize() + 1) * self.avg_wall_s / self.workers
        return int(min(600, max(1, math.ceil(estimate))))

    def stats(self) -> dict:
        return {
            "depth": self.queue.qsize(),
            "limit": self.queue.maxsize,
            "workers": self.workers,
            "executed": self.executed,
            "failed": self.failed,
            "avg_wall_s": round(self.avg_wall_s, 3),
        }


class LaneScheduler:
    """Admits flights into lanes and runs them to settlement."""

    def __init__(self, *, cache: ResultCache, registry: FlightRegistry,
                 interactive_workers: int = 1, batch_workers: int = 1,
                 queue_limit: int = 64, batch_queue_limit: int | None = None,
                 max_retries: int = 1, backoff_s: float = 0.05,
                 observe: bool = True, sink: SpanSink | None = None):
        self.cache = cache
        self.registry = registry
        self.observe = observe
        self.sink = sink
        self.log = get_logger("serve.scheduler")
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self.lanes = {
            "interactive": Lane("interactive", queue_limit,
                                interactive_workers),
            "batch": Lane("batch",
                          queue_limit if batch_queue_limit is None
                          else batch_queue_limit,
                          batch_workers),
        }
        self._tasks: list[asyncio.Task] = []
        self.rejected = 0

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        for lane in self.lanes.values():
            for i in range(lane.workers):
                self._tasks.append(asyncio.create_task(
                    self._worker(lane), name=f"serve-{lane.name}-{i}"))

    async def stop(self) -> None:
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()

    # ------------------------------------------------------------ admission

    def admit(self, flight: Flight) -> None:
        """Enqueue or raise :class:`AdmissionFull`; publishes the ``queued``
        event (with queue position) on success."""
        lane = self.lanes[flight.lane]
        try:
            lane.queue.put_nowait(flight)
        except asyncio.QueueFull:
            self.rejected += 1
            raise AdmissionFull(lane.name, lane.retry_after_s()) from None
        flight.queued_at_s = time.time()
        event = {
            "key": flight.key, "status": "queued", "lane": lane.name,
            "position": lane.queue.qsize(), "ts": flight.queued_at_s,
        }
        if flight.trace_id is not None:
            event["trace_id"] = flight.trace_id
        flight.publish(event)

    # ------------------------------------------------------------ execution

    async def _worker(self, lane: Lane) -> None:
        while True:
            flight = await lane.queue.get()
            try:
                await self._execute(lane, flight)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - a worker must survive
                flight.publish({
                    "key": flight.key, "status": "failed", "lane": lane.name,
                    "error": f"internal: {exc!r}", "terminal": True,
                    "ts": time.time(),
                })
                lane.failed += 1
                self.registry.retire(flight)
            finally:
                lane.queue.task_done()

    def _trace_event(self, flight: Flight, event: dict) -> dict:
        if flight.trace_id is not None:
            event["trace_id"] = flight.trace_id
        return event

    async def _execute(self, lane: Lane, flight: Flight) -> None:
        tracing = flight.trace_id is not None and self.sink is not None
        now = time.time()
        if tracing and flight.queued_at_s is not None:
            Span("queue.wait", trace_id=flight.trace_id, category="serve",
                 start_s=flight.queued_at_s,
                 attrs={"lane": lane.name, "key": flight.key}
                 ).finish(self.sink, end_s=now)
        flight.publish(self._trace_event(flight, {
            "key": flight.key, "status": "running", "lane": lane.name,
            "cell": flight.resolved.label, "ts": now,
        }))
        self.log.info("cell_running", trace_id=flight.trace_id,
                      key=flight.key, lane=lane.name,
                      cell=flight.resolved.label)
        execute_span = (Span("execute", trace_id=flight.trace_id,
                             category="executor",
                             attrs={"lane": lane.name, "key": flight.key})
                        if tracing else None)
        outcome = await asyncio.to_thread(self._run_cell_sync, flight,
                                          execute_span)
        if execute_span is not None:
            execute_span.finish(self.sink, ok="summary" in outcome,
                                attempts=outcome.get("attempts"))
        if "summary" in outcome:
            lane.executed += 1
            lane.note_wall(outcome["wall_s"])
            flight.result_wire = summary_to_dict(outcome["summary"])
            flight.publish(self._trace_event(flight, {
                "key": flight.key, "status": "done", "source": "run",
                "lane": lane.name, "terminal": True, "ts": time.time(),
                "telemetry": {"wall_s": outcome["wall_s"],
                              "attempts": outcome["attempts"]},
                "obs": outcome.get("obs"),
                "result": flight.result_wire,
            }))
            self.log.info("cell_done", trace_id=flight.trace_id,
                          key=flight.key, lane=lane.name,
                          wall_s=round(outcome["wall_s"], 3),
                          attempts=outcome["attempts"])
        else:
            lane.failed += 1
            flight.error = outcome["error"]
            flight.publish(self._trace_event(flight, {
                "key": flight.key, "status": "failed", "lane": lane.name,
                "error": outcome["error"], "attempts": outcome["attempts"],
                "terminal": True, "ts": time.time(),
            }))
            self.log.error("cell_quarantined", trace_id=flight.trace_id,
                           key=flight.key, lane=lane.name,
                           attempts=outcome["attempts"],
                           error=outcome["error"])
        self.registry.retire(flight)

    def _run_cell_sync(self, flight: Flight,
                       execute_span: Span | None = None) -> dict:
        """Worker-thread body: run the cell under the fault-tolerant
        executor (serial mode → same thread), publish to the cache."""
        resolved = flight.resolved
        if execute_span is not None:
            runner = _AttemptSpans(resolved.run_one, observe=self.observe,
                                   flight=flight, sink=self.sink,
                                   parent_id=execute_span.span_id)
        elif self.observe:
            runner = ObservedRunner(resolved.run_one)
        else:
            runner = resolved.run_one
        outcome: dict = {}

        def on_success(cell, result, attempts, wall_s):
            summary, obs_snapshot = split_observed(result)
            self.cache.put_cell(cell, summary, runner=resolved.runner_name,
                                source="serve")
            outcome.update(summary=summary, attempts=attempts,
                           wall_s=wall_s, obs=obs_snapshot)

        def on_quarantine(failure):
            outcome.update(error=failure.error, attempts=failure.attempts)

        def on_retry(cell, attempts, error):
            self.log.warning("cell_retry", trace_id=flight.trace_id,
                             key=flight.key, attempt=attempts, error=error)

        executor = FaultTolerantExecutor(
            runner, resolved.config, extra_kwargs=resolved.extra_kwargs,
            executor_config=ExecutorConfig(
                max_workers=1, max_retries=self.max_retries,
                backoff_s=self.backoff_s),
            on_retry=on_retry,
        )
        query = resolved.query
        executor.run([Cell(key=resolved.key, protocol=query.protocol,
                           x=query.x, seed=query.seed)],
                     on_success, on_quarantine)
        return outcome

    # -------------------------------------------------------------- stats

    def stats(self) -> dict:
        return {
            "rejected": self.rejected,
            "lanes": {name: lane.stats() for name, lane in self.lanes.items()},
            "executed": sum(l.executed for l in self.lanes.values()),
            "failed": sum(l.failed for l in self.lanes.values()),
        }
