"""Tests for the simulation service: dedup, fairness, streams, failure.

There is no async test plugin in the baked-in toolchain, so every test
drives its own loop with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import threading
from pathlib import Path

import pytest

from repro.core.config import WorkStealingConfig
from repro.core.jobs import JobFailure, JobState
from repro.errors import ConfigurationError, ServiceError
from repro.exec.pool import run_many
from repro.exec.store import ArtifactStore
from repro.service import SimulationService
from repro.uts.params import T3XS
from repro.ws.runner import run_uts


def _config(seed: int = 0) -> WorkStealingConfig:
    return WorkStealingConfig(tree=T3XS, nranks=4, seed=seed)


def _sim(config_dict: dict):
    return run_uts(WorkStealingConfig.from_dict(config_dict))


def _sweep(configs, store):
    """One blocking sweep through a throwaway one-worker service."""

    async def main():
        async with SimulationService(1, store) as service:
            return await (await service.submit(configs)).results()

    return asyncio.run(main())


class TestDedup:
    def test_concurrent_duplicate_submissions_execute_once(self):
        """Two clients submit the same config while it runs: one execution."""
        executions = []
        running = threading.Event()
        release = threading.Event()

        def runner(config_dict):
            executions.append(config_dict["seed"])
            running.set()
            assert release.wait(timeout=10)
            return _sim(config_dict)

        async def main():
            async with SimulationService(2, runner=runner) as service:
                first = await service.submit([_config()], client="alice")
                await asyncio.to_thread(running.wait, 10)  # job is executing
                second = await service.submit([_config()], client="bob")
                assert service.stats().dedup_joins == 1
                release.set()
                r1 = await first.results()
                r2 = await second.results()
                return r1, r2

        r1, r2 = asyncio.run(main())
        assert executions == [0]  # provably exactly one execution
        assert r1[0] is r2[0]  # both clients share the one result object

    def test_queued_duplicates_join_before_dispatch(self):
        executions = []

        def runner(config_dict):
            executions.append(config_dict["seed"])
            return _sim(config_dict)

        async def main():
            service = SimulationService(1, runner=runner)
            # Submit before start(): both land while nothing dispatches.
            h1 = await service.submit([_config()], client="alice")
            h2 = await service.submit([_config()], client="bob")
            assert service.stats().dedup_joins == 1
            assert service.stats().queued == 1  # literally one job
            async with service:
                r1, r2 = await h1.results(), await h2.results()
            return r1, r2

        r1, r2 = asyncio.run(main())
        assert executions == [0]
        assert r1[0] is r2[0]

    def test_store_hits_short_circuit(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = _sweep([_config()], store)
        second = _sweep([_config()], store)
        assert first[0].to_json() == second[0].to_json()

    def test_cached_jobs_emit_terminal_events(self, tmp_path):
        store = ArtifactStore(tmp_path)
        _sweep([_config()], store)

        async def main():
            async with SimulationService(1, store) as service:
                handle = await service.submit([_config()])
                return [event async for event in handle.events()]

        events = asyncio.run(main())
        assert [e.state for e in events] == [JobState.CACHED]
        assert events[0].cached


class TestFairShare:
    def test_equal_share_orders_dispatch(self):
        order = []

        def runner(config_dict):
            order.append(config_dict["seed"])
            return _sim(config_dict)

        async def main():
            service = SimulationService(1, runner=runner)
            # Queue everything before dispatch starts so the order is
            # purely the scheduler's (workers=1 => one at a time).
            await service.submit(
                [_config(s) for s in (10, 11, 12, 13)], client="alice"
            )
            await service.submit(
                [_config(s) for s in (20, 21, 22)], client="bob"
            )
            async with service:
                pass  # drain on exit

        asyncio.run(main())
        # Stride schedule: the clients alternate, each in FIFO order,
        # and alice keeps dispatching once bob has nothing queued.
        assert order == [10, 20, 11, 21, 12, 22, 13]


class TestShutdown:
    def test_close_drains_even_when_the_body_raises(self):
        """Leaving ``async with`` finishes running and queued jobs."""
        running = threading.Event()

        def runner(config_dict):
            running.set()
            return _sim(config_dict)

        async def main():
            service = SimulationService(1, runner=runner)
            with pytest.raises(RuntimeError, match="client gave up"):
                async with service:
                    handle = await service.submit([_config(0), _config(1)])
                    await asyncio.to_thread(running.wait, 10)  # job 0 runs
                    raise RuntimeError("client gave up")
            return await asyncio.wait_for(handle.results(), timeout=5), service.stats()

        results, stats = asyncio.run(main())
        assert [r.to_json() for r in results] == [
            r.to_json() for r in run_many([_config(0), _config(1)])
        ]
        assert stats.executed == 2 and stats.failed == 0 and stats.queued == 0


class TestFailureModes:
    def test_worker_exception_surfaces_as_job_failure(self):
        def runner(config_dict):
            raise ValueError("injected failure")

        async def main():
            async with SimulationService(1, runner=runner) as service:
                handle = await service.submit([_config()])
                events = [event async for event in handle.events()]
                return events, await handle.results()

        events, results = asyncio.run(main())
        assert isinstance(results[0], JobFailure)
        assert isinstance(results[0].error, ValueError)
        assert events[-1].state is JobState.FAILED
        assert events[-1].error == "injected failure"

    def test_submit_after_close_is_rejected(self):
        async def main():
            service = SimulationService(1, runner=_sim)
            async with service:
                pass
            with pytest.raises(ServiceError):
                await service.submit([_config()])

        asyncio.run(main())

    def test_rejects_bad_inputs(self):
        async def main():
            service = SimulationService(1, runner=_sim)
            with pytest.raises(ConfigurationError):
                await service.submit(["nope"])
            with pytest.raises(ConfigurationError):
                await service.submit([{"tree": "T3XS", "nranks": 0}])
            async with service:
                pass

        asyncio.run(main())

    @pytest.mark.parametrize(
        "bad", ["nope", {"tree": "T3XS", "no_such_field": 1}], ids=["str", "dict"]
    )
    def test_bad_entry_rejects_the_whole_sweep(self, bad, monkeypatch):
        """Nothing is counted, queued or simulated for a sweep that raises."""
        executions = []

        def runner(config_dict):
            executions.append(config_dict["seed"])
            return _sim(config_dict)

        async def main():
            service = SimulationService(1, runner=runner)
            with pytest.raises(ConfigurationError):
                await service.submit([_config(), bad])
            stats = service.stats()
            assert stats.submitted == 0 and stats.queued == 0
            await service.start()
            await asyncio.wait_for(service.close(), timeout=5)

        asyncio.run(main())
        assert executions == []

        monkeypatch.setattr(
            "repro.exec.pool._execute", lambda payload: executions.append(payload)
        )
        with pytest.raises(ConfigurationError):
            run_many([_config(), bad])
        assert executions == []

    def test_store_write_failure_fails_the_job(self, tmp_path):
        class ReadOnlyStore(ArtifactStore):
            def put(self, fingerprint, result, config=None, elapsed=None):
                raise PermissionError("read-only store")

        async def main():
            async with SimulationService(
                1, ReadOnlyStore(tmp_path), runner=_sim
            ) as service:
                handle = await service.submit([_config()])
                return await asyncio.wait_for(handle.results(), timeout=5)

        results = asyncio.run(main())
        assert isinstance(results[0], JobFailure)
        assert isinstance(results[0].error, PermissionError)

    def test_empty_sweep_resolves_immediately(self):
        async def main():
            async with SimulationService(1, runner=_sim) as service:
                handle = await service.submit([])
                assert [e async for e in handle.events()] == []
                return await handle.results()

        assert asyncio.run(main()) == []


class TestPoolBacked:
    """The real process-pool path (no injected runner)."""

    def test_traced_sweep_matches_direct_runner_and_is_stored(self, tmp_path):
        store = ArtifactStore(tmp_path)
        config = _config().replace(event_trace=True)
        results = _sweep([config], store)
        direct = run_uts(_config())
        assert results[0].total_nodes == direct.total_nodes
        assert store.get(config.fingerprint()).to_json() == results[0].to_json()

    @pytest.mark.parametrize("spelling", [Path, str], ids=["path", "str"])
    def test_store_spellings_reach_one_store(self, spelling, tmp_path):
        """A store opened from a path is the same store as an instance."""

        async def main():
            async with SimulationService(1, spelling(tmp_path)) as service:
                handle = await service.submit([_config()])
                return await handle.results()

        (result,) = asyncio.run(main())
        stored = ArtifactStore(tmp_path).get(_config().fingerprint())
        assert stored.to_json() == result.to_json()

    def test_event_sequence_for_fresh_job(self):
        async def main():
            async with SimulationService(1) as service:
                handle = await service.submit([_config()])
                return [event.state async for event in handle.events()]

        states = asyncio.run(main())
        assert states == [JobState.QUEUED, JobState.STARTED, JobState.DONE]
