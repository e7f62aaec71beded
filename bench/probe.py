"""Benchmark-side probes around the program's public entry points.

:class:`CellProbe` wraps ``Network.run`` at class level for as long as it is
installed and restores the original afterwards.  Each simulated cell then
leaves one row: how many events it dispatched, how many frames went on the
air, how long the run took and how long the cell spent in set-up before it.

Set-up is the time from ``run_one`` entry to ``Network.run`` entry; the
entry time comes from :meth:`CellProbe.timed`, which wraps a spec's
``run_one`` and records the row once the cell returns, with its result (a
cell that raises leaves no row).  The daemon launcher (``daemon.py``)
installs the probe without ``timed``: rows land when ``Network.run``
returns, and it only needs their event counts, keyed by the cell seed.
"""

from __future__ import annotations

import threading
import time

from repro.experiments.common import Network


class CellProbe:
    """One row per simulated cell while installed (``with CellProbe() as p``)."""

    def __init__(self):
        self.rows: list[dict] = []
        self._local = threading.local()
        self._original = None

    def __enter__(self) -> "CellProbe":
        original = self._original = Network.run
        probe = self

        def run(network, until):
            started = time.perf_counter()
            entered = getattr(probe._local, "entered", None)
            original(network, until)
            row = {
                "seed": int(network.scenario.seed),
                "events": int(network.simulator.events_processed),
                "tx": int(network.channel.tx_count),
                "run_s": time.perf_counter() - started,
            }
            if entered is None:
                probe.rows.append(row)  # list.append is atomic across threads
            else:
                row["setup_s"] = started - entered
                probe._local.row = row

        Network.run = run
        return self

    def __exit__(self, *exc_info) -> None:
        Network.run = self._original

    def timed(self, run_one):
        """Wrap ``run_one`` so each cell's row also carries its coordinates,
        its result and its wall time (serial, in-process execution only)."""
        probe = self

        def timed_run_one(protocol, x, seed, config, **extra):
            probe._local.row = None
            probe._local.entered = started = time.perf_counter()
            try:
                result = run_one(protocol, x, seed, config, **extra)
            finally:
                probe._local.entered = None
            row = probe._local.row
            if row is None:
                raise RuntimeError(f"{protocol}/x={x:g}/seed={seed} never "
                                   "called Network.run")
            metrics = result.metrics
            row.update(cell=f"{protocol}/x={x:g}/seed={seed}",
                       wall_s=time.perf_counter() - started,
                       delivered=int(metrics["delivered"]),
                       generated=int(metrics["generated"]),
                       delivery_ratio=float(metrics["delivery_ratio"]))
            probe.rows.append(row)
            return result

        return timed_run_one
