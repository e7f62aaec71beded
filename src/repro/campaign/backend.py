"""The execution backend protocol, its registry and the local-pool backend.

:func:`repro.campaign.runner.run_campaign` does not hardwire a process
pool: after the journal/cache triage it hands the cells that actually
need execution to an :class:`ExecutionBackend` found by
:func:`get_backend`.  A backend settles every cell — each either succeeds
(``run.on_success``) or is quarantined (``run.on_quarantine``) — and
returns a JSON-safe stats dict that lands in the campaign summary under
``"dist"``.  Whoever executes a cell publishes its result to the cache
(:meth:`~repro.campaign.cache.ResultCache.put_cell`); the runner only
reads it.

``local-pool``, the default, runs cells in-process under
:class:`~repro.campaign.executor.FaultTolerantExecutor` — the retry loop
the serving daemon and dist workers use too.  The distributed backends
(``ssh``, ``job-array``) live in :mod:`repro.dist` and are imported only
when a campaign asks for them, so the default path loads nothing from
that package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Protocol, runtime_checkable

from repro.campaign.cache import ResultCache
from repro.campaign.executor import (
    Cell,
    CellFailure,
    ExecutorConfig,
    FaultTolerantExecutor,
    ObservedRunner,
    split_observed,
)

__all__ = [
    "BackendRun",
    "DistOptions",
    "ExecutionBackend",
    "LocalPoolBackend",
    "backend_names",
    "get_backend",
    "register_backend",
]


@dataclass(frozen=True)
class DistOptions:
    """Distribution knobs forwarded from the CLI to the backend."""

    #: Hosts file for the ssh backend (see docs/DISTRIBUTED.md); ``None``
    #: means one ``local`` pseudo-host running ``workers`` agents.
    hosts_file: Optional[str] = None
    #: Lease TTL — how long a silent worker keeps a cell before a peer
    #: steals it.  The distributed analogue of ``--timeout``.
    lease_ttl_s: float = 30.0
    #: Shard count for the job-array backend (default: one per ~500 cells).
    shards: Optional[int] = None
    #: Where to put the spool; default ``<campaign-dir>/spool``.
    spool_dir: Optional[str] = None
    #: Coordinator poll interval while waiting on workers.
    poll_s: float = 0.25
    #: job-array: block until externally-run shards settle the spool.
    wait: bool = False


@dataclass
class BackendRun:
    """Everything a backend needs to settle a batch of cells."""

    run_one: Callable
    config: Any
    extra_kwargs: Mapping
    cells: list[Cell]
    executor_config: ExecutorConfig
    on_success: Callable[[Cell, Any, int, float], None]
    on_quarantine: Callable[[CellFailure], None]
    on_retry: Optional[Callable[[Cell, int, str], None]] = None
    observe: bool = False
    runner_name: str = ""
    cache: Optional[ResultCache] = None
    cache_dir: Optional[str] = None
    campaign_dir: Optional[str] = None
    options: DistOptions = field(default_factory=DistOptions)


@runtime_checkable
class ExecutionBackend(Protocol):
    """Settles every cell of a :class:`BackendRun`; returns dist stats."""

    name: str

    def execute(self, run: BackendRun) -> dict: ...


class LocalPoolBackend:
    """The in-process fault-tolerant pool (serial when one worker)."""

    name = "local-pool"

    def execute(self, run: BackendRun) -> dict:
        runner = ObservedRunner(run.run_one) if run.observe else run.run_one
        executor = FaultTolerantExecutor(
            runner, run.config, extra_kwargs=dict(run.extra_kwargs),
            executor_config=run.executor_config,
            on_retry=run.on_retry,
        )
        on_success = run.on_success
        if run.cache is not None:
            def on_success(cell: Cell, result, attempts: int, wall_s: float):
                run.cache.put_cell(cell, split_observed(result)[0],
                                   runner=run.runner_name, source=self.name)
                run.on_success(cell, result, attempts, wall_s)
        executor.run(run.cells, on_success, run.on_quarantine)
        return {}


# --------------------------------------------------------------------------
# Registry.

_BACKENDS: dict[str, Callable[[], ExecutionBackend]] = {}


def register_backend(name: str, factory: Callable[[], ExecutionBackend]) -> None:
    _BACKENDS[name] = factory


def backend_names() -> list[str]:
    return sorted(_BACKENDS)


def get_backend(name: str) -> ExecutionBackend:
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r} "
            f"(choose from: {' '.join(backend_names())})") from None
    return factory()


def _ssh_factory() -> ExecutionBackend:
    from repro.dist.ssh import SshBackend
    return SshBackend()


def _job_array_factory() -> ExecutionBackend:
    from repro.dist.job_array import JobArrayBackend
    return JobArrayBackend()


register_backend("local-pool", LocalPoolBackend)
register_backend("ssh", _ssh_factory)
register_backend("job-array", _job_array_factory)
