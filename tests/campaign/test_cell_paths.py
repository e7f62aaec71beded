"""One cell-execution path.

A campaign (``run_campaign`` on the local pool) and the serving daemon's
lane scheduler both settle a cell through the same retry loop
(``FaultTolerantExecutor``), the same observer (``ObservedRunner``) and the
same cache write (``ResultCache.put_cell``).  These tests drive one fake
cell through each caller and check that attempts, obs snapshots and cache
meta agree, so the paths cannot drift apart again.
"""

import asyncio
import json

import pytest

from repro.campaign import ResultCache, run_campaign
from repro.campaign.fingerprint import cell_key
from repro.serve.scheduler import LaneScheduler
from repro.serve.schemas import CellQuery, ResolvedCell
from repro.serve.singleflight import FlightRegistry
from tests.campaign import fakes
from tests.campaign.fakes import FakeConfig

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
    outcome = run_campaign(run_one, runner_name=RUNNER, protocols=(PROTOCOL,),
                           xs=(X,), seeds=(SEED,), config=config,
                           cache_dir=cache_root, workers=workers,
                           max_retries=1, backoff_s=0.0, observe=observe)
    assert not outcome.quarantined
    assert list(outcome.records) == [key]
    obs = outcome.summary["obs"]
    return (outcome.records[key].attempts,
            obs["metrics"] if obs is not None else None, cache_root)


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


CALLERS = {
    "local-pool": settle_local_pool,
    "serve": settle_serve,
}


def key_of(config) -> str:
    return cell_key(RUNNER, PROTOCOL, X, SEED, config, {})


class TestCacheMeta:
    def test_every_caller_writes_the_same_meta_schema(self, tmp_path):
        config = FakeConfig()
        outcome = run_campaign(fakes.counting_run_one, runner_name=RUNNER,
                               protocols=(PROTOCOL,), xs=(X,), seeds=(SEED,),
                               config=config,
                               cache_dir=tmp_path / "campaign-cache")
        (key,) = outcome.records
        assert key == key_of(config)
        metas = {"campaign": cache_meta(tmp_path / "campaign-cache", key)}
        for source in ("serve",):
            *_rest, cache_root = CALLERS[source](
                tmp_path, fakes.counting_run_one, config, key,
                observe=False)
            metas[source] = cache_meta(cache_root, key)

        assert {name: set(meta) for name, meta in metas.items()} == {
            name: META_KEYS for name in metas}
        assert {name: meta["source"] for name, meta in metas.items()} == {
            "campaign": "local-pool", "serve": "serve"}
        coordinates = [{k: v for k, v in meta.items() if k != "source"}
                       for meta in metas.values()]
        assert coordinates == [{"runner": RUNNER, "protocol": PROTOCOL,
                                "x": X, "seed": SEED}] * 2


class TestRetryParity:
    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_flaky_cell_settles_on_second_attempt_with_snapshot(
            self, tmp_path, caller):
        config = flaky_config(tmp_path, caller)
        key = key_of(config)
        attempts, snapshot, cache_root = CALLERS[caller](
            tmp_path, fakes.flaky_observed_run_one, config, key,
            observe=True)
        assert attempts == 2
        assert "fake_cells_total" in snapshot
        assert cache_meta(cache_root, key)["source"] == caller

    def test_pooled_local_pool_retries_the_same_way(self, tmp_path):
        config = flaky_config(tmp_path, "pool")
        attempts, snapshot, _root = settle_local_pool(
            tmp_path, fakes.flaky_observed_run_one, config, key_of(config),
            observe=True, workers=2)
        assert attempts == 2
        assert "fake_cells_total" in snapshot

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_unobserved_cell_carries_no_snapshot(self, tmp_path, caller):
        attempts, snapshot, _root = CALLERS[caller](
            tmp_path, fakes.counting_run_one, FakeConfig(),
            key_of(FakeConfig()), observe=False)
        assert attempts == 1
        assert snapshot is None
