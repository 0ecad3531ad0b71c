"""The asyncio simulation service: submit sweeps, stream progress.

:class:`SimulationService` is the long-running front-end over
:mod:`repro.exec`: clients submit sweeps (lists of
:class:`~repro.core.config.WorkStealingConfig`), the service dedups
them against the store **and** against work already in flight,
schedules what remains with equal-share fair scheduling
(:class:`~repro.service.scheduler.FairShareScheduler`) onto one shared
:class:`~repro.exec.pool.WorkerPool`, and streams typed
:class:`~repro.core.jobs.JobEvent`\\ s back to each submitter.

The dedup guarantee is the service's reason to exist: **one
fingerprint, one execution**.  A config found in the store is answered
without touching the simulator (``cached``); a config equal to one
already queued or running joins that job — both submitters stream its
events and both receive its result when it lands.

Typical use::

    async with SimulationService(workers=4, store=store) as service:
        handle = await service.submit(configs, client="alice")
        async for event in handle.events():
            print(event.state, event.label)
        results = await handle.results()

Leaving the ``async with`` block (:meth:`SimulationService.close`)
stops new submissions and waits for every accepted job, whether or not
the block raised; a job is never cancelled.

Each job goes through the same two steps as a :func:`run_many` job —
:func:`~repro.exec.pool.resolve` before it is queued,
:func:`~repro.exec.pool.land` when its worker replies — on the same
pool and store; only the control loop (this asyncio dispatcher) differs.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass
from typing import AsyncIterator, Callable, Iterable, Sequence

from repro.core.config import WorkStealingConfig
from repro.core.jobs import Job, JobEvent, JobFailure, JobState, next_job_id
from repro.errors import ServiceError
from repro.exec.pool import WorkerPool, land, resolve
from repro.exec.store import ArtifactStore, open_store
from repro.service.scheduler import FairShareScheduler
from repro.ws.results import RunResult

__all__ = ["SimulationService", "SweepHandle", "ServiceStats"]

#: Queue sentinel that ends a handle's event stream.
_STREAM_END = None


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time counters of one service instance."""

    #: Configs received by :meth:`SimulationService.submit`.
    submitted: int
    #: Submissions answered straight from the store.
    cache_hits: int
    #: Submissions that joined a job already in flight.
    dedup_joins: int
    #: Simulations actually executed (== distinct cache misses).
    executed: int
    #: Jobs that ended ``failed`` (the run or its store write raised).
    failed: int
    #: Jobs currently queued for dispatch.
    queued: int
    #: Jobs currently executing.
    running: int


class SweepHandle:
    """One client's view of one submitted sweep.

    The handle streams every event of the sweep's jobs — including
    jobs it merely joined — and resolves to the sweep's results, in
    submission order.
    """

    def __init__(self, jobs: Sequence[Job]):
        self._jobs = list(jobs)
        # Every job starts open — even born-terminal (cached) ones,
        # whose terminal event is delivered right after construction
        # and closes them; this keeps the sentinel behind all events.
        self._open = {job.id for job in jobs}
        self._events: asyncio.Queue[JobEvent | None] = asyncio.Queue()
        self._done = asyncio.Event()
        if not self._open:  # empty sweep
            self._finish()

    # -- service-side delivery -----------------------------------------

    def _deliver(self, job: Job, event: JobEvent) -> None:
        self._events.put_nowait(event)
        if event.state.terminal:
            self._open.discard(job.id)
            if not self._open:
                self._finish()

    def _finish(self) -> None:
        self._done.set()
        self._events.put_nowait(_STREAM_END)

    # -- client surface ------------------------------------------------

    async def events(self) -> AsyncIterator[JobEvent]:
        """Stream this sweep's job events until every job is terminal.

        Safe to iterate once.
        """
        while True:
            event = await self._events.get()
            if event is _STREAM_END:
                return
            yield event

    async def results(self) -> list[RunResult | JobFailure]:
        """Wait for the sweep; results in submission order.

        Failed jobs surface as :class:`~repro.core.jobs.JobFailure`
        slots, exception attached — the same shape
        ``run_many(..., return_exceptions=True)`` returns.
        """
        await self._done.wait()
        return [
            JobFailure(
                fingerprint=job.fingerprint,
                label=job.label,
                error=job.error,
                elapsed=job.elapsed,
            )
            if job.state is JobState.FAILED
            else job.result
            for job in self._jobs
        ]


class SimulationService:
    """Async job front-end over the :mod:`repro.exec` worker pool.

    Parameters
    ----------
    workers:
        Concurrent simulations (= worker processes).  ``None`` uses
        ``os.cpu_count()``.
    store:
        :class:`~repro.exec.store.ArtifactStore`, a path, ``True`` for
        the default store, or ``None`` to run storeless (in-flight
        dedup still applies) — :func:`~repro.exec.store.open_store`.
    runner:
        Test seam: a synchronous callable ``runner(config_dict) ->
        RunResult`` executed on a thread instead of the process pool.
    """

    def __init__(
        self,
        workers: int | None = None,
        store: ArtifactStore | str | os.PathLike | bool | None = None,
        *,
        runner: Callable[[dict], RunResult] | None = None,
    ):
        self.store = open_store(store)
        self._runner = runner
        self._pool = WorkerPool(workers)
        self._scheduler = FairShareScheduler()
        self._inflight: dict[str, Job] = {}
        self._watchers: dict[str, list[SweepHandle]] = {}
        self._tasks: dict[str, asyncio.Task] = {}
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._dispatcher: asyncio.Task | None = None
        self._closing = False
        self._counts = {
            "submitted": 0,
            "cache_hits": 0,
            "dedup_joins": 0,
            "executed": 0,
            "failed": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "SimulationService":
        """Start dispatching.  Jobs may be submitted before this."""
        if self._closing:
            raise ServiceError("service is closed")
        if self._dispatcher is None:
            self._dispatcher = asyncio.create_task(
                self._dispatch(), name="repro-service-dispatcher"
            )
            self._wake.set()
        return self

    async def close(self) -> None:
        """Stop the service once every accepted job has finished."""
        if self._closing:
            return
        self._closing = True
        self._wake.set()
        await self._idle.wait()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        self._pool.shutdown()

    async def __aenter__(self) -> "SimulationService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    async def submit(
        self,
        configs: Iterable[WorkStealingConfig | dict] | WorkStealingConfig,
        *,
        client: str = "default",
    ) -> SweepHandle:
        """Submit a sweep; returns its :class:`SweepHandle` immediately.

        The whole sweep is validated first (a bad entry raises before
        anything is counted or queued); then every config is resolved
        in order: **store hit** (job is born terminal in state
        ``cached``), **in-flight join** (an equal fingerprint is
        already queued or running — this sweep watches that job
        instead of spawning another execution), or **fresh job**
        (queued under ``client`` for fair-share dispatch).
        """
        if self._closing:
            raise ServiceError("service is closed; submit rejected")
        if isinstance(configs, (WorkStealingConfig, dict)):
            configs = [configs]
        resolved = resolve(configs)

        jobs: list[Job] = []
        fresh = False
        now = time.monotonic()
        for config, config_dict, fingerprint in resolved:
            self._counts["submitted"] += 1

            shared = self._inflight.get(fingerprint)
            if shared is not None:
                if shared not in jobs:
                    self._counts["dedup_joins"] += 1
                jobs.append(shared)
                continue

            hit = self.store.get(fingerprint) if self.store is not None else None
            job = Job(
                id=next_job_id(),
                fingerprint=fingerprint,
                config=config_dict,
                label=config.label(),
                client=client,
                submitted_at=now,
            )
            jobs.append(job)
            if hit is not None:
                self._counts["cache_hits"] += 1
                job.state = JobState.CACHED
                job.result = hit
                job.finished_at = time.monotonic()
                continue
            fresh = True
            self._inflight[fingerprint] = job
            self._idle.clear()
            self._scheduler.push(job)

        handle = SweepHandle(jobs)
        seen: set[str] = set()
        for job in jobs:
            if job.id in seen:
                continue
            seen.add(job.id)
            if not job.terminal:
                self._watchers.setdefault(job.id, []).append(handle)
            self._emit_to(handle, job, job.state, cached=job.state is JobState.CACHED)
        if fresh:
            self._wake.set()
        return handle

    # ------------------------------------------------------------------
    # Dispatch and execution
    # ------------------------------------------------------------------

    async def _dispatch(self) -> None:
        slots = asyncio.Semaphore(self._pool.workers)
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._scheduler:
                await slots.acquire()
                job = self._scheduler.pop()
                task = asyncio.create_task(
                    self._run_job(job, slots), name=f"repro-{job.id}"
                )
                self._tasks[job.id] = task

    async def _run_job(self, job: Job, slots: asyncio.Semaphore) -> None:
        job.state = JobState.STARTED
        job.started_at = time.monotonic()
        self._emit(job, JobState.STARTED)
        try:
            payload, elapsed = await self._execute(job)
            result = land(self.store, job.fingerprint, job.config, payload, elapsed)
        except Exception as exc:
            self._fail(job, exc)
        else:
            self._counts["executed"] += 1
            job.elapsed = elapsed
            job.result = result
            job.state = JobState.DONE
            job.finished_at = time.monotonic()
            self._emit(job, JobState.DONE, elapsed=elapsed)
            self._settle(job)
        finally:
            slots.release()

    async def _execute(self, job: Job) -> tuple[str, float]:
        """One simulation, on the pool (or the injected runner).

        Returns the worker reply without its index:
        ``(result_json, elapsed)``.
        """
        if self._runner is not None:
            loop = asyncio.get_running_loop()
            start = time.perf_counter()
            result = await loop.run_in_executor(
                None, self._runner, dict(job.config)
            )
            return result.to_json(), time.perf_counter() - start
        _, payload, elapsed = await asyncio.wrap_future(
            self._pool.submit(job.config)
        )
        return payload, elapsed

    # ------------------------------------------------------------------
    # Completion plumbing
    # ------------------------------------------------------------------

    def _fail(self, job: Job, error: BaseException) -> None:
        self._counts["failed"] += 1
        job.state = JobState.FAILED
        job.error = error
        job.finished_at = time.monotonic()
        self._emit(job, JobState.FAILED, error=str(error))
        self._settle(job)

    def _settle(self, job: Job) -> None:
        """Terminal bookkeeping: leave the in-flight index, free watchers."""
        self._inflight.pop(job.fingerprint, None)
        self._tasks.pop(job.id, None)
        self._watchers.pop(job.id, None)
        if not self._inflight and not self._scheduler:
            self._idle.set()

    def _emit(
        self,
        job: Job,
        state: JobState,
        *,
        elapsed: float = 0.0,
        error: str | None = None,
    ) -> None:
        for handle in self._watchers.get(job.id, ()):
            self._emit_to(handle, job, state, elapsed=elapsed, error=error)

    def _emit_to(
        self,
        handle: SweepHandle,
        job: Job,
        state: JobState,
        *,
        elapsed: float = 0.0,
        cached: bool = False,
        error: str | None = None,
    ) -> None:
        handle._deliver(
            job,
            JobEvent(
                job_id=job.id,
                state=state,
                fingerprint=job.fingerprint,
                label=job.label,
                client=job.client,
                timestamp=time.monotonic(),
                elapsed=elapsed,
                cached=cached,
                error=error,
            ),
        )

    # ------------------------------------------------------------------

    def stats(self) -> ServiceStats:
        """Current counters (plus store stats via ``service.store``)."""
        return ServiceStats(
            submitted=self._counts["submitted"],
            cache_hits=self._counts["cache_hits"],
            dedup_joins=self._counts["dedup_joins"],
            executed=self._counts["executed"],
            failed=self._counts["failed"],
            queued=len(self._scheduler),
            running=len(self._tasks),
        )
