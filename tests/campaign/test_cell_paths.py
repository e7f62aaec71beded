"""One cell-execution path.

A campaign's local-pool backend, the serving daemon's lane scheduler and a
dist worker all settle a cell through the same retry loop
(``FaultTolerantExecutor``), the same observer (``ObservedRunner``) and the
same cache write (``ResultCache.put_cell``).  These tests drive one fake
cell through each caller and check that attempts, obs snapshots and cache
meta agree, so the paths cannot drift apart again.
"""

import asyncio
import json

import pytest

from repro.campaign import ResultCache, run_campaign
from repro.campaign.executor import Cell, ExecutorConfig, ObservedResult
from repro.campaign.fingerprint import cell_key
from repro.dist.backend import BackendRun, get_backend
from repro.dist.spool import CellSpec
from repro.dist.worker import WorkerAgent
from repro.serve.scheduler import LaneScheduler
from repro.serve.schemas import CellQuery, ResolvedCell
from repro.serve.singleflight import FlightRegistry
from tests.campaign import fakes
from tests.campaign.fakes import FakeConfig
from tests.dist.test_worker import make_spool

RUNNER = "fake"
PROTOCOL, X, SEED = "alpha", 1.0, 1
META_KEYS = {"runner", "protocol", "x", "seed", "source"}


@pytest.fixture(autouse=True)
def _reset_call_log():
    fakes.CALLS.clear()


def flaky_config(tmp_path, name: str) -> FakeConfig:
    """A config whose flag dir is private to one caller, so each caller's
    first attempt fails once."""
    flags = tmp_path / f"flags-{name}"
    flags.mkdir()
    return FakeConfig(flag_dir=str(flags))


def cache_meta(cache_root, key: str) -> dict:
    cache = ResultCache(cache_root)
    return json.loads(cache._path(key).read_text())["meta"]


# Each settle_* drives one cell through one caller and returns
# ``(attempts, obs_snapshot, cache_root)``.


def settle_local_pool(tmp_path, run_one, config, key, *, observe,
                      workers=1):
    cache_root = tmp_path / f"pool{workers}-cache"
    settled, quarantined = [], []
    get_backend("local-pool").execute(BackendRun(
        run_one=run_one, config=config, extra_kwargs={},
        cells=[Cell(key=key, protocol=PROTOCOL, x=X, seed=SEED)],
        executor_config=ExecutorConfig(max_workers=workers, max_retries=1,
                                       backoff_s=0.0),
        on_success=lambda cell, result, attempts, wall_s:
            settled.append((attempts, result)),
        on_quarantine=quarantined.append,
        observe=observe, runner_name=RUNNER,
        cache=ResultCache(cache_root)))
    assert not quarantined
    ((attempts, result),) = settled
    snapshot = (result.obs_snapshot if isinstance(result, ObservedResult)
                else None)
    return attempts, snapshot, cache_root


def settle_serve(tmp_path, run_one, config, key, *, observe):
    cache_root = tmp_path / "serve-cache"
    resolved = ResolvedCell(
        query=CellQuery(experiment=RUNNER, protocol=PROTOCOL, x=X,
                        seed=SEED),
        key=key, run_one=run_one, config=config, extra_kwargs={},
        runner_name=RUNNER, cost=None)

    async def drive() -> dict:
        scheduler = LaneScheduler(cache=ResultCache(cache_root),
                                  registry=FlightRegistry(), max_retries=1,
                                  backoff_s=0.0, observe=observe)
        scheduler.start()
        try:
            flight, _created = scheduler.registry.join_or_create(
                resolved, "interactive")
            scheduler.admit(flight)
            await asyncio.wait_for(flight.wait_settled(), timeout=30.0)
        finally:
            await scheduler.stop()
        return flight.history[-1]

    done = asyncio.run(drive())
    assert done["status"] == "done", done
    return done["telemetry"]["attempts"], done["obs"], cache_root


def settle_worker(tmp_path, run_one, config, key, *, observe):
    cache_root = tmp_path / "dist-cache"
    spool = make_spool(
        tmp_path, run_one,
        [CellSpec(key=key, protocol=PROTOCOL, x=X, seed=SEED)],
        payload={"run_one": run_one, "config": config, "extra": {}},
        campaign=RUNNER, observe=observe, cache_dir=cache_root)
    assert WorkerAgent(spool, worker_id="w1").run() == 1
    marker = spool.read_done(key)
    return marker["attempts"], marker.get("obs_snapshot"), cache_root


CALLERS = {
    "local-pool": settle_local_pool,
    "serve": settle_serve,
    "dist": settle_worker,
}


class TestCacheMeta:
    def test_every_caller_writes_the_same_meta_schema(self, tmp_path):
        config = FakeConfig()
        outcome = run_campaign(fakes.counting_run_one, runner_name=RUNNER,
                               protocols=(PROTOCOL,), xs=(X,), seeds=(SEED,),
                               config=config,
                               cache_dir=tmp_path / "campaign-cache")
        (key,) = outcome.records
        assert key == cell_key(RUNNER, PROTOCOL, X, SEED, config, {})
        metas = {"campaign": cache_meta(tmp_path / "campaign-cache", key)}
        for source in ("serve", "dist"):
            *_rest, cache_root = CALLERS[source](
                tmp_path, fakes.counting_run_one, config, key,
                observe=False)
            metas[source] = cache_meta(cache_root, key)

        assert {name: set(meta) for name, meta in metas.items()} == {
            name: META_KEYS for name in metas}
        assert {name: meta["source"] for name, meta in metas.items()} == {
            "campaign": "local-pool", "serve": "serve", "dist": "dist"}
        coordinates = [{k: v for k, v in meta.items() if k != "source"}
                       for meta in metas.values()]
        assert coordinates == [{"runner": RUNNER, "protocol": PROTOCOL,
                                "x": X, "seed": SEED}] * 3


class TestRetryParity:
    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_flaky_cell_settles_on_second_attempt_with_snapshot(
            self, tmp_path, caller):
        config = flaky_config(tmp_path, caller)
        attempts, snapshot, cache_root = CALLERS[caller](
            tmp_path, fakes.flaky_observed_run_one, config, "f" * 40,
            observe=True)
        assert attempts == 2
        assert "fake_cells_total" in snapshot
        assert cache_meta(cache_root, "f" * 40)["source"] == caller

    def test_pooled_local_pool_retries_the_same_way(self, tmp_path):
        config = flaky_config(tmp_path, "pool")
        attempts, snapshot, _root = settle_local_pool(
            tmp_path, fakes.flaky_observed_run_one, config, "f" * 40,
            observe=True, workers=2)
        assert attempts == 2
        assert "fake_cells_total" in snapshot

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_unobserved_cell_carries_no_snapshot(self, tmp_path, caller):
        attempts, snapshot, _root = CALLERS[caller](
            tmp_path, fakes.counting_run_one, FakeConfig(), "a" * 40,
            observe=False)
        assert attempts == 1
        assert snapshot is None
