"""Deterministic fake runners for campaign tests.

Everything here is module-level (picklable by reference) so the same fakes
drive both the inline serial executor and real worker processes.  The fake
"simulation" is a pure function of its cell coordinates and config, which
makes bit-identical-result assertions exact and cheap.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.net.packet import PacketKind, packet_uid
from repro.stats.metrics import MetricsSummary


@dataclass(frozen=True)
class FakeConfig:
    """Stands in for an experiment config; ``scale`` is the knob tests
    change to exercise cache invalidation."""
    scale: float = 1.0
    #: Directory for cross-process coordination (flag files); "" disables.
    flag_dir: str = ""


def make_summary(protocol: str, x: float, seed: int,
                 config: FakeConfig) -> MetricsSummary:
    # crc32, not hash(): builtin hashing is salted per interpreter, and
    # pool workers are fresh processes — results must agree bit-for-bit
    # across process boundaries.
    base = zlib.crc32(protocol.encode()) % 97 / 100.0
    return MetricsSummary(
        generated=100,
        delivered=90 + seed,
        delivery_ratio=0.9 + seed / 100.0,
        avg_delay_s=(x * 0.1 + seed * 0.013 + base) * config.scale,
        avg_hops=3.0 + x / 10.0,
        mac_packets=int(x * 100) + seed,
    )


#: In-process call log: (protocol, x, seed) per execution.  Only meaningful
#: for serial (workers <= 1) runs, where cells execute in this interpreter.
CALLS: list[tuple] = []


def counting_run_one(protocol, x, seed, config):
    CALLS.append((protocol, x, seed))
    return make_summary(protocol, x, seed, config)


def faults_run_one(protocol, x, seed, config, faults=None):
    """Records which FaultPlan (by name) each cell executed under."""
    CALLS.append((protocol, x, seed,
                  None if faults is None else faults.name))
    return make_summary(protocol, x, seed, config)


def observed_run_one(protocol, x, seed, config, obs=None):
    """Counts one fake delivery into the obs bundle when one is attached."""
    CALLS.append((protocol, x, seed))
    if obs is not None:
        obs.registry.counter("fake_cells_total",
                             labelnames=("protocol",)).labels(protocol).inc()
        obs.on_deliver(0.5, node=1,
                       uid=packet_uid(PacketKind.DATA, 0, seed), delay_s=0.1 * x,
                       hops=2)
    return make_summary(protocol, x, seed, config)


def flaky_observed_run_one(protocol, x, seed, config, obs=None):
    """Raises on the *first* attempt of every cell (a flag file in
    ``config.flag_dir`` remembers it across processes), then behaves like
    :func:`observed_run_one` — for retry-parity tests."""
    flag = Path(config.flag_dir) / f"flaky-{protocol}-{x:g}-{seed}"
    if not flag.exists():
        flag.write_text("x")
        raise RuntimeError(f"cell ({protocol}, {x}, {seed}) flaked")
    return observed_run_one(protocol, x, seed, config, obs=obs)


def failing_run_one(protocol, x, seed, config):
    """Raises forever for the (bad, 1.0, *) cells; succeeds elsewhere."""
    CALLS.append((protocol, x, seed))
    if protocol == "bad" and x == 1.0:
        raise ValueError(f"cell ({protocol}, {x}, {seed}) is cursed")
    return make_summary(protocol, x, seed, config)


def sleepy_run_one(protocol, x, seed, config):
    """Hangs on the (slow, 1.0, *) cells — for timeout tests (process mode)."""
    if protocol == "slow" and x == 1.0:
        time.sleep(60.0)
    return make_summary(protocol, x, seed, config)


def dying_run_one(protocol, x, seed, config):
    """Kills its worker process hard on the *first* attempt of each
    (dies, *, *) cell, then succeeds — for BrokenProcessPool recovery."""
    if protocol == "dies":
        flag = Path(config.flag_dir) / f"died-{x:g}-{seed}"
        if not flag.exists():
            flag.write_text("x")
            os._exit(13)
    return make_summary(protocol, x, seed, config)


def dying_or_napping_run_one(protocol, x, seed, config):
    """Like :func:`dying_run_one`, plus (naps, *, *) cells that sleep 1 s —
    long enough to be in flight when another worker dies — and
    (doomed, *, *) cells that kill their worker on every attempt."""
    if protocol == "naps":
        time.sleep(1.0)
    if protocol == "doomed":
        os._exit(13)
    return dying_run_one(protocol, x, seed, config)


class InterruptAfter:
    """Serial-mode runner that simulates a mid-campaign kill: raises
    ``KeyboardInterrupt`` once ``limit`` cells have completed."""

    def __init__(self, limit: int):
        self.limit = limit
        self.calls = 0

    def __call__(self, protocol, x, seed, config):
        if self.calls >= self.limit:
            raise KeyboardInterrupt
        self.calls += 1
        return make_summary(protocol, x, seed, config)
