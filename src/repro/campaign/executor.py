"""Fault-tolerant execution of sweep cells.

Layered over :class:`concurrent.futures.ProcessPoolExecutor`, this executor
adds what the bare pool lacks for long campaigns:

* **per-cell timeout** — a cell that exceeds its deadline is failed, its
  (possibly hung) worker pool is torn down and rebuilt, and innocent
  bystander cells that died with the pool are resubmitted without an
  attempt penalty;
* **bounded retry with backoff** — a cell that raises or times out is
  retried up to ``max_retries`` times, each retry delayed by an exponential
  backoff so a transiently sick machine gets room to recover;
* **``BrokenProcessPool`` recovery** — a worker process dying (OOM kill,
  segfault, ``os._exit``) breaks the whole pool; the executor rebuilds it,
  charges a failed attempt only to cells whose future actually raised, and
  re-queues the rest for free;
* **quarantine** — a cell that exhausts its retries is reported through a
  callback and *excluded* from the results instead of failing the campaign.

Cells run serially in-process when ``max_workers <= 1`` (same retry and
quarantine semantics; timeouts need worker processes and are not enforced
inline).  ``KeyboardInterrupt`` always propagates — an interrupted campaign
is the journal's job to resume, not the executor's to swallow.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

__all__ = ["Cell", "CellFailure", "ExecutorConfig", "FaultTolerantExecutor",
           "ObservedResult", "ObservedRunner", "split_observed"]


@dataclass(frozen=True)
class Cell:
    """Coordinates of one unit of work; ``key`` is its content address."""
    key: str
    protocol: str
    x: float
    seed: int


@dataclass(frozen=True)
class ObservedResult:
    """What an observed cell returns: the plain summary plus the worker's
    metrics-registry snapshot (JSON-safe, cheap to pickle home)."""

    summary: Any
    obs_snapshot: dict


class ObservedRunner:
    """Picklable wrapper giving each executed cell a fresh
    :class:`~repro.obs.observe.Observability` bundle.

    Only *executed* cells carry observability — cache and journal hits
    settle from the stored plain summary, so campaign-level obs covers the
    cells that actually ran this invocation.
    """

    def __init__(self, run_one: Callable):
        self.run_one = run_one

    def __call__(self, protocol, x, seed, config, **extra):
        from repro.obs.observe import Observability
        obs = Observability()
        summary = self.run_one(protocol, x, seed, config, obs=obs, **extra)
        return ObservedResult(summary=summary, obs_snapshot=obs.snapshot())


def split_observed(result) -> tuple[Any, Optional[dict]]:
    """``(summary, obs_snapshot)`` of what a cell returned; the snapshot is
    ``None`` for a plain (unobserved) summary."""
    if isinstance(result, ObservedResult):
        return result.summary, result.obs_snapshot
    return result, None


@dataclass(frozen=True)
class CellFailure:
    """A quarantined cell: every retry was spent."""
    cell: Cell
    attempts: int
    error: str


@dataclass(frozen=True)
class ExecutorConfig:
    max_workers: int = 1
    #: Per-cell wall-clock deadline; ``None`` disables (process mode only).
    timeout_s: Optional[float] = None
    #: Retries after the first failure; total attempts = max_retries + 1.
    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_multiplier: float = 2.0
    #: How often the event loop wakes to check deadlines.
    poll_s: float = 0.1

    def backoff_for(self, attempts: int) -> float:
        return self.backoff_s * self.backoff_multiplier ** max(0, attempts - 1)


@dataclass
class _Task:
    cell: Cell
    attempts: int = 0
    ready_at: float = 0.0


def _invoke(payload):
    """Worker-side cell execution; times itself so queue wait isn't billed."""
    run_one, protocol, x, seed, config, extra = payload
    start = time.monotonic()
    summary = run_one(protocol, x, seed, config, **extra)
    return summary, time.monotonic() - start


class FaultTolerantExecutor:
    """Runs a batch of cells to settlement: each either succeeds (reported
    via ``on_success``) or is quarantined (via ``on_quarantine``)."""

    def __init__(
        self,
        run_one: Callable,
        config: Any,
        extra_kwargs: Mapping | None = None,
        executor_config: ExecutorConfig | None = None,
        on_retry: Callable[[Cell, int, str], None] | None = None,
    ):
        self.run_one = run_one
        self.config = config
        self.extra = dict(extra_kwargs or {})
        self.exec_config = executor_config or ExecutorConfig()
        self.on_retry = on_retry
        self.retries = 0
        self.pool_rebuilds = 0

    # --------------------------------------------------------------- public

    def run(
        self,
        cells: Sequence[Cell],
        on_success: Callable[[Cell, Any, int, float], None],
        on_quarantine: Callable[[CellFailure], None],
    ) -> None:
        if not cells:
            return
        tasks = [_Task(cell) for cell in cells]
        if self.exec_config.max_workers <= 1:
            self._run_serial(tasks, on_success, on_quarantine)
        else:
            self._run_pool(tasks, on_success, on_quarantine)

    # --------------------------------------------------------------- serial

    def _run_serial(self, tasks, on_success, on_quarantine) -> None:
        for task in tasks:
            while True:
                task.attempts += 1
                start = time.monotonic()
                try:
                    summary = self.run_one(task.cell.protocol, task.cell.x,
                                           task.cell.seed, self.config,
                                           **self.extra)
                except Exception as exc:  # noqa: BLE001 - quarantine, don't die
                    if not self._note_failure(task, repr(exc), on_quarantine):
                        break
                    time.sleep(self.exec_config.backoff_for(task.attempts))
                else:
                    on_success(task.cell, summary, task.attempts,
                               time.monotonic() - start)
                    break

    # ----------------------------------------------------------------- pool

    def _payload(self, task: _Task):
        return (self.run_one, task.cell.protocol, task.cell.x,
                task.cell.seed, self.config, self.extra)

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.exec_config.max_workers)

    def _kill_pool(self, pool: ProcessPoolExecutor) -> None:
        # shutdown() never terminates a hung worker; do it ourselves first.
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already-dead races
                pass
        pool.shutdown(wait=False, cancel_futures=True)
        self.pool_rebuilds += 1

    def _note_failure(self, task: _Task, error: str, on_quarantine) -> bool:
        """Record a failed attempt.  True if the task will be retried."""
        if task.attempts > self.exec_config.max_retries:
            on_quarantine(CellFailure(task.cell, task.attempts, error))
            return False
        self.retries += 1
        if self.on_retry is not None:
            self.on_retry(task.cell, task.attempts, error)
        return True

    def _run_pool(self, tasks, on_success, on_quarantine) -> None:
        cfg = self.exec_config
        pending: deque[_Task] = deque(tasks)
        waiting: list[_Task] = []          # backing off until ready_at
        inflight: dict = {}                # future -> (task, deadline)
        pool = self._new_pool()

        def requeue(task: _Task, error: str) -> None:
            if self._note_failure(task, error, on_quarantine):
                task.ready_at = time.monotonic() + cfg.backoff_for(task.attempts)
                waiting.append(task)

        def rebuild(reason_tasks_free: list[_Task]) -> None:
            nonlocal pool
            self._kill_pool(pool)
            pool = self._new_pool()
            # Bystanders lost to the teardown retry without an attempt charge.
            for task in reason_tasks_free:
                task.attempts -= 1
                pending.appendleft(task)

        try:
            while pending or waiting or inflight:
                now = time.monotonic()
                still_waiting = []
                for task in waiting:
                    (pending.append if task.ready_at <= now
                     else still_waiting.append)(task)
                waiting[:] = still_waiting

                while pending and len(inflight) < cfg.max_workers:
                    task = pending.popleft()
                    try:
                        future = pool.submit(_invoke, self._payload(task))
                    except BrokenProcessPool:
                        # The pool died between loop iterations; rebuild and
                        # let the normal drain path settle the in-flight cells.
                        pending.appendleft(task)
                        bystanders = [t for t, _dl in inflight.values()]
                        inflight.clear()
                        rebuild(bystanders)
                        break
                    task.attempts += 1
                    deadline = (now + cfg.timeout_s
                                if cfg.timeout_s is not None else float("inf"))
                    inflight[future] = (task, deadline)

                if not inflight:
                    if not pending:
                        # Everything is backing off; sleep until the earliest
                        # wakes.  (Cells still pending after a submit found
                        # the pool broken go straight to the rebuilt pool.)
                        time.sleep(max(0.001,
                                       min(t.ready_at for t in waiting) - now))
                    continue

                done, _ = wait(set(inflight), timeout=cfg.poll_s,
                               return_when=FIRST_COMPLETED)
                pool_broke = False
                for future in done:
                    task, _deadline = inflight.pop(future)
                    try:
                        summary, wall_s = future.result()
                    except BrokenProcessPool as exc:
                        pool_broke = True
                        requeue(task, f"worker died: {exc!r}")
                    except Exception as exc:  # noqa: BLE001
                        requeue(task, repr(exc))
                    else:
                        on_success(task.cell, summary, task.attempts, wall_s)

                now = time.monotonic()
                overdue = [f for f, (_t, dl) in inflight.items() if now >= dl]
                if overdue:
                    for future in overdue:
                        task, _deadline = inflight.pop(future)
                        requeue(task, f"timeout after {cfg.timeout_s}s")
                    bystanders = [task for task, _dl in inflight.values()]
                    inflight.clear()
                    rebuild(bystanders)
                elif pool_broke:
                    # Sibling futures died with the pool through no fault of
                    # their own — but a few may have finished first; keep those.
                    bystanders = []
                    for future, (task, _deadline) in list(inflight.items()):
                        if future.done():
                            try:
                                summary, wall_s = future.result()
                            except Exception:  # noqa: BLE001
                                bystanders.append(task)
                            else:
                                on_success(task.cell, summary, task.attempts,
                                           wall_s)
                        else:
                            bystanders.append(task)
                    inflight.clear()
                    rebuild(bystanders)
        finally:
            self._kill_pool(pool)
