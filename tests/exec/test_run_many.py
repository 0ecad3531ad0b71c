"""Tests for the parallel batch runner."""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.config import WorkStealingConfig
import repro.exec.pool as pool_mod

from repro.core.jobs import JobFailure
from repro.errors import ConfigurationError
from repro.exec.pool import RunProgress, WorkerPool, run_many
from repro.exec.store import ArtifactStore
from repro.uts.params import T3XS


def _configs(n: int = 4, **kw) -> list[WorkStealingConfig]:
    return [
        WorkStealingConfig(tree=T3XS, nranks=8, seed=seed, **kw)
        for seed in range(n)
    ]


def _same_result(a, b) -> bool:
    for f in dataclasses.fields(a):
        if f.name in ("per_rank_nodes", "per_rank_search_time"):
            if not (getattr(a, f.name) == getattr(b, f.name)).all():
                return False
        elif f.name in ("trace", "_profile"):
            continue  # compared separately where relevant
        elif getattr(a, f.name) != getattr(b, f.name):
            return False
    return True


class TestRunMany:
    def test_serial_matches_parallel_bit_for_bit(self):
        configs = _configs(4)
        serial = run_many(configs, jobs=1)
        parallel = run_many(configs, jobs=2)
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert _same_result(a, b)
            assert a.to_json() == b.to_json()

    def test_accepts_config_dicts(self):
        configs = _configs(2)
        from_objs = run_many(configs)
        from_dicts = run_many([c.to_dict() for c in configs])
        for a, b in zip(from_objs, from_dicts):
            assert a.to_json() == b.to_json()

    def test_duplicates_share_one_result(self):
        cfg = _configs(1)[0]
        results = run_many([cfg, cfg.replace(), cfg])
        assert results[0] is results[1] is results[2]

    def test_results_in_input_order(self):
        configs = _configs(5)
        results = run_many(configs, jobs=3)
        for cfg, result in zip(configs, results):
            assert result.nranks == cfg.nranks
            assert result.label == cfg.label()

    def test_progress_callback(self):
        configs = _configs(3)
        ticks: list[RunProgress] = []
        run_many(configs, jobs=2, progress=ticks.append)
        assert len(ticks) == 3
        assert sorted(t.index for t in ticks) == [0, 1, 2]
        assert {t.done for t in ticks} == {1, 2, 3}
        assert all(t.total == 3 and not t.cached for t in ticks)
        assert all(t.elapsed > 0 for t in ticks)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            run_many(["not-a-config"])
        with pytest.raises(ConfigurationError):
            run_many(_configs(1), jobs=0)
        with pytest.raises(ConfigurationError):
            run_many(_configs(1), store=3.14)

    def test_a_config_only_the_build_rejects_runs_nothing(self):
        # A flat topology with the default (hierarchical) latency model:
        # rejected as the sweep is resolved, before the good entry runs.
        good = _configs(1)[0]
        bad = {**good.to_dict(), "topology_factory": "flat"}
        ticks: list[RunProgress] = []
        with pytest.raises(ConfigurationError):
            run_many([good, bad], progress=ticks.append)
        assert ticks == []

    def test_empty_batch(self):
        assert run_many([]) == []

    def test_bad_jobs_rejected_whatever_the_store_holds(self, tmp_path):
        configs = _configs(2)
        run_many(configs, store=tmp_path)  # warm: nothing left to run
        with pytest.raises(ConfigurationError):
            run_many(configs, jobs=-3, store=tmp_path)
        with pytest.raises(ConfigurationError):
            run_many([], jobs=0)


# ----------------------------------------------------------------------
# Failure isolation and pool reuse
# ----------------------------------------------------------------------

# Worker stand-ins must be module-level so they pickle to pool workers.


def _boom_worker(payload):
    index, config_dict = payload
    if config_dict["seed"] == 1:
        raise ValueError("injected failure")
    from repro.exec.pool import _execute

    return _execute(payload)


def _killed_worker(payload):
    import time as _time

    index, config_dict = payload
    if index == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    # The sweep's other jobs wait for the broken executor to terminate
    # them: one that finished before the death was noticed would not fail.
    _time.sleep(30)
    from repro.exec.pool import _execute

    return _execute(payload)


def _killed_first_worker(payload):
    if payload[0] == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    from repro.exec.pool import _execute

    return _execute(payload)


class _DeathSeenFirst(ProcessPoolExecutor):
    """An executor whose first submission returns only once its future
    is done: a death in the first job is noticed before the next job is
    submitted."""

    def submit(self, fn, /, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        if not getattr(self, "_held", False):
            self._held = True
            futures_wait([future])
        return future


class TestFailureIsolation:
    def test_worker_exception_raises_by_default(self):
        with pytest.raises(ValueError, match="injected failure"):
            run_many(_configs(3), jobs=2, _worker=_boom_worker)

    def test_return_exceptions_isolates_failures(self):
        configs = _configs(3)
        ticks: list[RunProgress] = []
        results = run_many(
            configs,
            jobs=2,
            _worker=_boom_worker,
            return_exceptions=True,
            progress=ticks.append,
        )
        assert isinstance(results[1], JobFailure)
        assert isinstance(results[1].error, ValueError)
        assert results[1].label == configs[1].label()
        for i in (0, 2):
            assert results[i].label == configs[i].label()
        failed = [t for t in ticks if t.state == "failed"]
        assert len(failed) == 1 and failed[0].error == "injected failure"

    def test_serial_path_isolates_failures_too(self):
        results = run_many(
            _configs(2), jobs=1, _worker=_boom_worker, return_exceptions=True
        )
        assert isinstance(results[1], JobFailure)
        assert results[0].label == _configs(2)[0].label()


class TestWorkerPool:
    def test_shared_pool_is_reused_across_calls(self):
        dicts = [cfg.to_dict() for cfg in _configs(2)]

        def batch(pool):
            futures = [pool.submit(d, index=i) for i, d in enumerate(dicts)]
            return [future.result()[:2] for future in futures]

        with WorkerPool(2) as pool:
            first = batch(pool)
            executor = pool._executor
            assert executor is not None
            second = batch(pool)
            assert pool._executor is executor  # same processes, reused
        assert first == second == [(i, r.to_json()) for i, r in enumerate(run_many(dicts))]

    def test_direct_submit_speaks_worker_protocol(self):
        cfg = _configs(1)[0]
        with WorkerPool(1) as pool:
            index, payload, elapsed = pool.submit(cfg.to_dict(), index=7).result()
        assert index == 7 and elapsed > 0
        from repro.ws.results import RunResult

        assert RunResult.from_json(payload).label == cfg.label()

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(0)


def _expire(signum, frame):
    raise TimeoutError("test exceeded its time limit")


@pytest.fixture
def time_limit():
    """Fail the test after 60 s instead of letting a wedged pool hang the suite."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestWorkerDeath:
    def test_dead_worker_fails_its_sweep_not_the_pool(self, tmp_path, time_limit):
        configs = _configs(3)
        store = ArtifactStore(tmp_path / "store")
        # Workers abandoned by earlier timeout tests may still be alive.
        before = set(multiprocessing.active_children())
        killed = run_many(
            configs,
            jobs=2,
            store=store,
            return_exceptions=True,
            _worker=_killed_worker,
        )
        assert all(isinstance(slot, JobFailure) for slot in killed)
        assert store.get(killed[0].fingerprint) is None
        # A shared pool outlives the death: the next submission starts
        # a fresh executor instead of failing too.  (One doomed job: a
        # second one submitted after the death was noticed would land
        # on the fresh executor and run.)
        dicts = [cfg.to_dict() for cfg in configs]
        with WorkerPool(2) as pool:
            doomed = pool.submit(dicts[0], index=0, _worker=_killed_worker)
            with pytest.raises(BrokenProcessPool):
                doomed.result()
            again = [pool.submit(d, index=i) for i, d in enumerate(dicts)]
            again = [future.result()[1] for future in again]
        assert set(multiprocessing.active_children()) <= before
        assert again == [r.to_json() for r in run_many(configs)]

    def test_death_seen_before_the_rest_is_submitted(
        self, tmp_path, monkeypatch, time_limit
    ):
        # The order a fast death makes: jobs 1 and 2 are submitted to
        # an executor already known to be broken.  They fail with the
        # sweep; they do not run on a fresh executor.
        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", _DeathSeenFirst)
        configs = _configs(3)
        store = ArtifactStore(tmp_path / "store")
        killed = run_many(
            configs,
            jobs=2,
            store=store,
            return_exceptions=True,
            _worker=_killed_first_worker,
        )
        assert all(isinstance(slot, JobFailure) for slot in killed)
        assert all(isinstance(slot.error, BrokenProcessPool) for slot in killed)
        assert all(store.get(cfg.fingerprint()) is None for cfg in configs)
