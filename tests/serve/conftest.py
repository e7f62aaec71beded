"""Serve-test fixtures: a toy registered experiment and a daemon thread.

The toy experiment registers itself in :mod:`repro.experiments.registry`
under the name ``servetoy`` at import time (once per session), so the
daemon resolves it exactly the way it resolves fig1 — same registry, same
content addressing — while cells stay microsecond-cheap and fully
controllable (blocking, crashing, observable) from the tests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import pytest

from repro.experiments.registry import experiment
from repro.experiments.registry import unregister as registry_unregister
from repro.net.packet import PacketKind, packet_uid
from repro.serve.server import ServeConfig, ServerThread
from repro.stats.metrics import MetricsSummary


@dataclass(frozen=True, kw_only=True)
class ToyConfig:
    """Cost fields mirror the real configs so lane selection applies."""

    n_nodes: int = 10
    duration_s: float = 1.0
    #: Wall-clock the cell burns; lets tests hold a flight open.
    sleep_s: float = 0.0
    #: When true the cell parks on :data:`BLOCK` until a test releases it.
    block: bool = False
    protocols: tuple = ("alpha", "beta", "crash")


#: In-process execution log: (protocol, x, seed) per *executed* cell.
CALLS: list[tuple] = []

#: Gate blocked toy cells wait on (admission-control tests).
BLOCK = threading.Event()


def toy_summary(protocol: str, x: float, seed: int) -> MetricsSummary:
    return MetricsSummary(
        generated=10, delivered=9, delivery_ratio=0.9 + seed / 100.0,
        avg_delay_s=x * 0.01 + seed * 0.001, avg_hops=2.0 + x,
        mac_packets=int(10 * x) + seed)


def toy_run_one(protocol, x, seed, config, obs=None, faults=None):
    CALLS.append((protocol, x, seed))
    if config.sleep_s:
        time.sleep(config.sleep_s)
    if config.block:
        BLOCK.wait(timeout=30.0)
    if protocol == "crash":
        raise ValueError(f"toy cell ({protocol}, {x:g}, {seed}) crashed")
    if obs is not None:
        obs.on_deliver(0.5, node=1, uid=packet_uid(PacketKind.DATA, 0, seed),
                       delay_s=0.1 * x, hops=2)
    return toy_summary(protocol, x, seed)


def servetoy_spec(config: ToyConfig | None = None):
    from repro.campaign import CampaignSpec
    config = config if config is not None else ToyConfig()
    return CampaignSpec(name="servetoy", run_one=toy_run_one,
                        protocols=config.protocols, xs=(1.0, 2.0),
                        seeds=(1, 2), config=config)


@pytest.fixture(scope="session", autouse=True)
def _register_servetoy():
    """Plug the toy into the live registry for the serve suite only —
    registering at conftest import time would leak ``servetoy`` into the
    registry every other test in the session sees."""
    experiment(name="servetoy", description="serve-test toy sweep",
               panels=("delivery_ratio",), x_label="x")(servetoy_spec)
    yield
    registry_unregister("servetoy")


def toy_query(protocol="alpha", x=1.0, seed=1, **rest) -> dict:
    return {"experiment": "servetoy", "protocol": protocol, "x": x,
            "seed": seed, **rest}


@pytest.fixture(autouse=True)
def _reset_toy_state():
    CALLS.clear()
    BLOCK.clear()
    yield
    BLOCK.set()  # never leave executor threads parked across tests


@pytest.fixture
def serve_factory(tmp_path):
    """``make(**ServeConfig overrides) -> ServerThread`` with teardown."""
    started: list[ServerThread] = []

    def make(**overrides) -> ServerThread:
        overrides.setdefault("cache_dir", tmp_path / "cache")
        config = ServeConfig(port=0, **overrides)
        thread = ServerThread(config).__enter__()
        started.append(thread)
        return thread

    yield make
    BLOCK.set()
    for thread in started:
        thread.__exit__(None, None, None)


@pytest.fixture
def server(serve_factory) -> ServerThread:
    """A default daemon on an ephemeral port with a fresh cache."""
    return serve_factory()
