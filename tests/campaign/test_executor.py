"""Fault-tolerant executor: retries, quarantine, timeouts, pool recovery."""

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.campaign.executor import (
    Cell,
    CellFailure,
    ExecutorConfig,
    FaultTolerantExecutor,
)
from tests.campaign import fakes
from tests.campaign.fakes import FakeConfig, make_summary


def collect():
    done, quarantined = [], []
    return done, quarantined, (lambda c, s, a, w: done.append((c, s, a))), \
        quarantined.append


def cells(*coords):
    return [Cell(key=f"k{i}", protocol=p, x=x, seed=s)
            for i, (p, x, s) in enumerate(coords)]


@pytest.fixture(autouse=True)
def _reset_call_log():
    fakes.CALLS.clear()


class TestSerial:
    def test_all_cells_succeed(self):
        done, quarantined, on_done, on_q = collect()
        ex = FaultTolerantExecutor(fakes.counting_run_one, FakeConfig(),
                                   executor_config=ExecutorConfig())
        batch = cells(("a", 1.0, 1), ("a", 2.0, 1), ("b", 1.0, 2))
        ex.run(batch, on_done, on_q)
        assert len(done) == 3 and not quarantined
        assert done[0][1] == make_summary("a", 1.0, 1, FakeConfig())
        assert all(attempts == 1 for _c, _s, attempts in done)

    def test_failing_cell_retried_then_quarantined(self):
        done, quarantined, on_done, on_q = collect()
        retries = []
        ex = FaultTolerantExecutor(
            fakes.failing_run_one, FakeConfig(),
            executor_config=ExecutorConfig(max_retries=2, backoff_s=0.001),
            on_retry=lambda c, a, e: retries.append((c, a)))
        batch = cells(("bad", 1.0, 1), ("good", 1.0, 1))
        ex.run(batch, on_done, on_q)
        # Cursed cell: 1 try + 2 retries, then quarantine; neighbour untouched.
        assert [c.protocol for c, _s, _a in done] == ["good"]
        assert len(quarantined) == 1
        failure = quarantined[0]
        assert isinstance(failure, CellFailure)
        assert failure.attempts == 3
        assert "cursed" in failure.error
        assert len(retries) == 2
        assert fakes.CALLS.count(("bad", 1.0, 1)) == 3

    def test_zero_retries_quarantines_immediately(self):
        done, quarantined, on_done, on_q = collect()
        ex = FaultTolerantExecutor(
            fakes.failing_run_one, FakeConfig(),
            executor_config=ExecutorConfig(max_retries=0))
        ex.run(cells(("bad", 1.0, 1)), on_done, on_q)
        assert quarantined[0].attempts == 1
        assert fakes.CALLS.count(("bad", 1.0, 1)) == 1

    def test_keyboard_interrupt_propagates(self):
        done, quarantined, on_done, on_q = collect()
        runner = fakes.InterruptAfter(limit=1)
        ex = FaultTolerantExecutor(runner, FakeConfig(),
                                   executor_config=ExecutorConfig())
        with pytest.raises(KeyboardInterrupt):
            ex.run(cells(("a", 1.0, 1), ("a", 2.0, 1)), on_done, on_q)
        assert len(done) == 1


class TestProcessPool:
    def test_parallel_matches_serial_summaries(self):
        done, quarantined, on_done, on_q = collect()
        ex = FaultTolerantExecutor(
            fakes.counting_run_one, FakeConfig(),
            executor_config=ExecutorConfig(max_workers=2))
        batch = cells(("a", 1.0, 1), ("a", 2.0, 1), ("b", 1.0, 1), ("b", 2.0, 1))
        ex.run(batch, on_done, on_q)
        assert not quarantined
        by_cell = {(c.protocol, c.x, c.seed): s for c, s, _a in done}
        for cell in batch:
            assert by_cell[(cell.protocol, cell.x, cell.seed)] == \
                make_summary(cell.protocol, cell.x, cell.seed, FakeConfig())

    def test_exception_in_worker_quarantined_not_fatal(self):
        done, quarantined, on_done, on_q = collect()
        ex = FaultTolerantExecutor(
            fakes.failing_run_one, FakeConfig(),
            executor_config=ExecutorConfig(max_workers=2, max_retries=1,
                                           backoff_s=0.001))
        ex.run(cells(("bad", 1.0, 1), ("good", 1.0, 1), ("good", 2.0, 2)),
               on_done, on_q)
        assert len(done) == 2
        assert len(quarantined) == 1
        assert quarantined[0].attempts == 2

    def test_timeout_quarantines_hung_cell_and_spares_the_rest(self):
        done, quarantined, on_done, on_q = collect()
        ex = FaultTolerantExecutor(
            fakes.sleepy_run_one, FakeConfig(),
            executor_config=ExecutorConfig(max_workers=2, timeout_s=0.5,
                                           max_retries=1, backoff_s=0.001,
                                           poll_s=0.05))
        batch = cells(("slow", 1.0, 1), ("fast", 1.0, 1), ("fast", 2.0, 1),
                      ("fast", 3.0, 1))
        ex.run(batch, on_done, on_q)
        assert {c.protocol for c, _s, _a in done} == {"fast"}
        assert len(done) == 3
        assert len(quarantined) == 1
        assert "timeout" in quarantined[0].error
        assert ex.pool_rebuilds >= 1

    def test_broken_pool_recovered_and_cell_retried(self, tmp_path):
        done, quarantined, on_done, on_q = collect()
        config = FakeConfig(flag_dir=str(tmp_path))
        ex = FaultTolerantExecutor(
            fakes.dying_run_one, config,
            executor_config=ExecutorConfig(max_workers=2, max_retries=2,
                                           backoff_s=0.001, poll_s=0.05))
        batch = cells(("dies", 1.0, 1), ("ok", 1.0, 1), ("ok", 2.0, 1))
        ex.run(batch, on_done, on_q)
        # The dying cell's first attempt nukes its worker; the retry (new
        # pool, flag file present) succeeds.  Nothing is quarantined.
        assert not quarantined
        assert len(done) == 3
        assert ex.pool_rebuilds >= 1
        dies = [(c, a) for c, _s, a in done if c.protocol == "dies"]
        assert dies[0][1] >= 2

    def test_pool_found_broken_at_submit_is_rebuilt(self, monkeypatch):
        # A worker can die between loop iterations, so the next submit
        # raises instead of a future; the cell must go to a fresh pool.
        class DeadPool:
            _processes = {}

            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("a worker died")

            def shutdown(self, **kwargs):
                pass

        done, quarantined, on_done, on_q = collect()
        ex = FaultTolerantExecutor(
            fakes.counting_run_one, FakeConfig(),
            executor_config=ExecutorConfig(max_workers=2))
        real_new_pool = ex._new_pool
        pools = []

        def new_pool():
            pools.append(real_new_pool() if pools else DeadPool())
            return pools[-1]

        monkeypatch.setattr(ex, "_new_pool", new_pool)
        ex.run(cells(("a", 1.0, 1)), on_done, on_q)
        assert not quarantined
        assert [(c.protocol, a) for c, _s, a in done] == [("a", 1)]
        assert len(pools) == 2
