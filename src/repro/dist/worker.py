"""The distributed worker agent: ``python -m repro.dist.worker``.

A worker is leaderless and stateless — point any number of them at the
same spool directory and they coordinate purely through lease files::

    python -m repro.dist.worker --spool campaigns/fig1/spool
    python -m repro.dist.worker --spool ... --shard 3      # array shard
    python -m repro.dist.worker --spool ... --no-steal

The loop: scan the spooled cells (own shard first when ``--shard`` is
given), skip settled ones, try to claim a lease on the rest; on a claim,
execute the cell while a heartbeat thread renews the lease, publish the
result to the shared content-addressed cache, write the ``done/`` marker,
release the lease.  Execution, retry and observation are the campaign
subsystem's: :class:`~repro.campaign.executor.FaultTolerantExecutor` in
serial mode with the spool's retry policy, wrapped in
:class:`~repro.campaign.executor.ObservedRunner` when the campaign observes
— the same code the local-pool backend and the serving daemon run.
When no cell is claimable, look for *expired* leases — a peer that died
mid-cell — and steal them.  Exit when every cell is settled, the spool's
``STOP`` flag appears, or ``--max-cells`` is reached.

Execution is at-least-once: a worker that stalls past the lease TTL has
its cell re-executed elsewhere, and both executions write identical
bytes under the same content address.  The journal stays single-writer —
workers never touch it; the coordinator folds ``done/`` markers exactly
once per key.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from repro.campaign.cache import ResultCache
from repro.campaign.executor import (
    CellFailure,
    ExecutorConfig,
    FaultTolerantExecutor,
    ObservedRunner,
    split_observed,
)
from repro.dist.lease import HeartbeatThread, default_worker_id
from repro.dist.spool import CellSpec, WorkSpool

__all__ = ["WorkerAgent", "run_worker", "main"]


class WorkerAgent:
    """One worker's drain of one spool."""

    def __init__(
        self,
        spool: WorkSpool,
        *,
        worker_id: str | None = None,
        shard: int | None = None,
        steal: bool = True,
        poll_s: float = 0.25,
        max_cells: int | None = None,
        cache_dir: str | os.PathLike | None = None,
    ):
        self.spool = spool
        self.worker_id = worker_id or default_worker_id()
        self.shard = shard
        self.steal_enabled = steal
        self.poll_s = poll_s
        self.max_cells = max_cells
        manifest = spool.manifest()
        self.ttl_s = float(manifest["ttl_s"])
        self.runner_name = str(manifest.get("campaign", ""))
        self.leases = spool.lease_dir(self.worker_id, ttl_s=self.ttl_s)
        cache_root = cache_dir or manifest.get("cache_dir")
        if cache_root is None:
            raise RuntimeError(
                f"spool {spool.directory} names no cache_dir and none was "
                "given; workers need the shared result store")
        self.cache = ResultCache(cache_root)

        payload = spool.load_payload()
        run_one = payload["run_one"]
        self.executor = FaultTolerantExecutor(
            ObservedRunner(run_one) if manifest.get("observe") else run_one,
            payload["config"], extra_kwargs=payload.get("extra", {}),
            executor_config=ExecutorConfig(
                max_workers=1,
                max_retries=int(manifest.get("max_retries", 2)),
                backoff_s=float(manifest.get("backoff_s", 0.05))))

        self.cells_done = 0
        self.cells_failed = 0
        self.steals = 0
        self.heartbeats = 0
        self.started_at = time.time()

    # -------------------------------------------------------------- reporting

    def _stats(self, state: str) -> dict:
        return {
            "worker": self.worker_id,
            "host": self.leases.host,
            "pid": os.getpid(),
            "shard": self.shard,
            "state": state,
            "started_at": self.started_at,
            "updated_at": time.time(),
            "cells_done": self.cells_done,
            "cells_failed": self.cells_failed,
            "steals": self.steals,
            "lost_steals": self.leases.lost_steals,
            "heartbeats": self.heartbeats,
        }

    def publish_stats(self, state: str = "running") -> None:
        try:
            self.spool.write_worker_stats(self.worker_id, self._stats(state))
        except OSError:  # pragma: no cover - stats are best-effort
            pass

    # -------------------------------------------------------------- execution

    def _settle(self, cell: CellSpec, *, stolen: bool) -> None:
        """Execute a claimed cell and publish its settlement."""

        def on_success(cell: CellSpec, result, attempts: int, wall_s: float):
            summary, snapshot = split_observed(result)
            self.cache.put_cell(cell, summary, runner=self.runner_name,
                                source="dist")
            record = {
                "key": cell.key, "worker": self.worker_id,
                "attempts": attempts, "wall_s": wall_s, "stolen": stolen,
            }
            if snapshot is not None:
                record["obs_snapshot"] = snapshot
            self.spool.mark_done(cell.key, record)
            self.cells_done += 1

        def on_quarantine(failure: CellFailure):
            self.cells_failed += 1
            self.spool.mark_failed(cell.key, {
                "key": cell.key, "worker": self.worker_id,
                "attempts": failure.attempts, "error": failure.error,
                "stolen": stolen,
            })

        self.executor.run([cell], on_success, on_quarantine)

    def _claim_and_run(self, cell: CellSpec, *, allow_steal: bool) -> bool:
        """Try to take the cell; True if this worker settled it."""
        if self.spool.is_settled(cell.key):
            return False
        lease = self.leases.claim(cell.key)
        stolen = False
        if lease is None and allow_steal:
            lease = self.leases.steal(cell.key)
            stolen = lease is not None
        if lease is None:
            return False
        if stolen:
            self.steals += 1
        # Settlement may have landed between our scan and the claim.
        if self.spool.is_settled(cell.key):
            lease.release()
            return False
        heartbeat = HeartbeatThread(lease)
        heartbeat.start()
        try:
            self._settle(cell, stolen=stolen)
        finally:
            heartbeat.stop()
            self.heartbeats += lease.heartbeats
            lease.release()
        return True

    # ------------------------------------------------------------------ loop

    def _sweeps(self) -> list[tuple[list[CellSpec], bool]]:
        """Cell passes in claim order.  A sharded worker fresh-claims only
        its own shard; foreign shards are reached in the stealing pass —
        which also fresh-claims, so a shard whose array job never started
        is still drained by its peers."""
        cells = self.spool.cells()
        if self.shard is None:
            primary = cells
            foreign: list[CellSpec] = []
        else:
            primary = [c for c in cells if c.shard == self.shard]
            foreign = [c for c in cells if c.shard != self.shard]
        sweeps = [(primary, False)]
        if self.steal_enabled:
            sweeps.append((primary + foreign, True))
        return sweeps

    def run(self) -> int:
        """Drain the spool; returns the number of cells this worker settled."""
        settled_by_me = 0
        sweeps = self._sweeps()
        self.publish_stats()
        while True:
            progress = False
            for cells, allow_steal in sweeps:
                for cell in cells:
                    if self.spool.stop_requested():
                        self.publish_stats("stopped")
                        return settled_by_me
                    if self._claim_and_run(cell, allow_steal=allow_steal):
                        settled_by_me += 1
                        progress = True
                        self.publish_stats()
                        if (self.max_cells is not None
                                and settled_by_me >= self.max_cells):
                            self.publish_stats("exited")
                            return settled_by_me
                if progress:
                    break  # rescan for fresh claims before stealing again
            if not self.spool.unsettled_keys():
                break
            if not progress:
                # Everything left is leased by live peers (or mid-expiry);
                # wait for settlements or TTL lapses.
                time.sleep(self.poll_s)
        self.publish_stats("exited")
        return settled_by_me


def run_worker(
    spool_dir: str | os.PathLike,
    *,
    worker_id: str | None = None,
    shard: int | None = None,
    steal: bool = True,
    poll_s: float = 0.25,
    max_cells: int | None = None,
    cache_dir: str | os.PathLike | None = None,
) -> int:
    """Programmatic entry point (the coordinator's inline fallback)."""
    agent = WorkerAgent(WorkSpool(spool_dir), worker_id=worker_id,
                        shard=shard, steal=steal, poll_s=poll_s,
                        max_cells=max_cells, cache_dir=cache_dir)
    return agent.run()


def _detect_array_shard() -> Optional[int]:
    """Shard index from the batch scheduler's environment, if any."""
    for name in ("REPRO_SHARD", "SLURM_ARRAY_TASK_ID", "PBS_ARRAY_INDEX",
                 "SGE_TASK_ID"):
        value = os.environ.get(name)
        if value is not None and value.isdigit():
            return int(value)
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dist.worker",
        description="Pull-and-execute agent for a spooled campaign.")
    parser.add_argument("--spool", required=True, metavar="DIR",
                        help="the shared spool directory")
    parser.add_argument("--worker-id", default=None,
                        help="stable identity (default: <host>.<pid>)")
    parser.add_argument("--shard", type=int, default=None,
                        help="prefer this shard's cells (default: scheduler "
                             "env, else the whole spool)")
    parser.add_argument("--no-steal", action="store_true",
                        help="never take over expired peers' leases")
    parser.add_argument("--poll", type=float, default=0.25, metavar="SEC",
                        help="idle rescan interval (default %(default)s)")
    parser.add_argument("--max-cells", type=int, default=None, metavar="N",
                        help="exit after settling N cells (testing)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="override the spool manifest's cache location")
    args = parser.parse_args(argv)

    shard = args.shard if args.shard is not None else _detect_array_shard()
    try:
        settled = run_worker(args.spool, worker_id=args.worker_id,
                             shard=shard, steal=not args.no_steal,
                             poll_s=args.poll, max_cells=args.max_cells,
                             cache_dir=args.cache_dir)
    except (OSError, RuntimeError) as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"worker": args.worker_id or default_worker_id(),
                      "settled": settled}))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
