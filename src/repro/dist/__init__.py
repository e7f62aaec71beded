"""Distributed campaign execution.

The campaign runner settles sweep cells through an
:class:`~repro.campaign.backend.ExecutionBackend`.  The protocol, its
registry and the default ``local-pool`` backend (the in-process
:class:`FaultTolerantExecutor`) live in :mod:`repro.campaign.backend` and
are re-exported here; this package holds the two distributed backends:

* ``ssh`` — stdlib-only multi-host execution: ``python -m
  repro.dist.worker`` agents launched over ssh (or directly for the
  ``local`` pseudo-host) pull cells from a filesystem spool shared
  through the campaign directory;
* ``job-array`` — emit sharded manifests plus SLURM/PBS-compatible
  array scripts so any batch scheduler can run the shards.

Coordination is leaderless, in the spirit of the paper's local leader
election: workers claim cells by creating expiring lease files
(atomic-rename claims, TTL heartbeats) and a worker that dies mid-cell
has its lease expire and its cell stolen by a peer — renew or be
replaced.  Execution is at-least-once but results are idempotent through
the content-addressed cache, so a stolen cell never double-counts.

See ``docs/DISTRIBUTED.md``.
"""

from repro.dist.backend import (
    BackendRun,
    DistOptions,
    ExecutionBackend,
    LocalPoolBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.dist.hosts import HostSpec, check_hosts, parse_hosts_file
from repro.dist.lease import Lease, LeaseDir, LeaseInfo
from repro.dist.spool import CellSpec, WorkSpool

__all__ = [
    "BackendRun",
    "CellSpec",
    "DistOptions",
    "ExecutionBackend",
    "HostSpec",
    "Lease",
    "LeaseDir",
    "LeaseInfo",
    "LocalPoolBackend",
    "WorkSpool",
    "backend_names",
    "check_hosts",
    "get_backend",
    "parse_hosts_file",
    "register_backend",
]
