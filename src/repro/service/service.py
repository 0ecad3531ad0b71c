"""The asyncio simulation service: submit sweeps, stream progress.

:class:`SimulationService` is the long-running front-end over
:mod:`repro.exec`: clients submit sweeps (lists of
:class:`~repro.core.config.WorkStealingConfig`), the service dedups
them against the store **and** against work already in flight,
schedules what remains with priority + weighted fair share
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
from repro.errors import (
    ConfigurationError,
    JobCancelledError,
    JobTimeoutError,
    ServiceError,
)
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
    #: Jobs that ended ``failed`` (errors, timeouts, cancellations).
    failed: int
    #: Jobs currently queued for dispatch.
    queued: int
    #: Jobs currently executing.
    running: int


class SweepHandle:
    """One client's view of one submitted sweep.

    The handle streams every event of the sweep's jobs — including
    jobs it merely joined — and resolves to the sweep's results, in
    submission order.  :meth:`cancel` withdraws the sweep: jobs no
    other handle is watching are cancelled (surfacing as ``failed``
    with :class:`~repro.errors.JobCancelledError` attached), shared
    jobs keep running for their other watchers, and the event stream
    terminates either way.
    """

    def __init__(self, service: "SimulationService", jobs: Sequence[Job]):
        self._service = service
        self._jobs = list(jobs)
        # Every job starts open — even born-terminal (cached) ones,
        # whose terminal event is delivered right after construction
        # and closes them; this keeps the sentinel behind all events.
        self._open = {job.id for job in jobs}
        self._events: asyncio.Queue[JobEvent | None] = asyncio.Queue()
        self._done = asyncio.Event()
        self._cancelled = False
        if not self._open:  # empty sweep
            self._finish()

    # -- service-side delivery -----------------------------------------

    def _deliver(self, job: Job, event: JobEvent) -> None:
        if self._done.is_set():
            return
        self._events.put_nowait(event)
        if event.state.terminal:
            self._open.discard(job.id)
            if not self._open:
                self._finish()

    def _finish(self) -> None:
        if not self._done.is_set():
            self._done.set()
            self._events.put_nowait(_STREAM_END)

    # -- client surface ------------------------------------------------

    @property
    def jobs(self) -> list[Job]:
        """The sweep's jobs, in submission order (shared jobs repeat)."""
        return list(self._jobs)

    @property
    def done(self) -> bool:
        return self._done.is_set()

    async def events(self) -> AsyncIterator[JobEvent]:
        """Stream this sweep's job events until every job is terminal.

        Safe to iterate once; terminates on completion *and* on
        :meth:`cancel`.
        """
        while True:
            event = await self._events.get()
            if event is _STREAM_END:
                return
            yield event

    async def results(self) -> list[RunResult | JobFailure]:
        """Wait for the sweep; results in submission order.

        Failed jobs (including timeouts and cancellations) surface as
        :class:`~repro.core.jobs.JobFailure` slots, exception attached
        — the same shape ``run_many(..., return_exceptions=True)``
        returns.
        """
        await self._done.wait()
        out: list[RunResult | JobFailure] = []
        for job in self._jobs:
            if job.state is JobState.FAILED or job.result is None:
                error = job.error or JobCancelledError(
                    f"job {job.label!r} was withdrawn before it ran"
                )
                out.append(
                    JobFailure(
                        fingerprint=job.fingerprint,
                        label=job.label,
                        error=error,
                        elapsed=job.elapsed,
                    )
                )
            else:
                out.append(job.result)
        return out

    async def cancel(self) -> int:
        """Withdraw the sweep; returns the number of jobs cancelled.

        Jobs watched only by this handle are cancelled (queued jobs
        never run, running jobs are interrupted); jobs shared with
        other handles are left to finish for them.  The handle's event
        stream terminates.
        """
        self._cancelled = True
        cancelled = await self._service._cancel_jobs(self, self._jobs)
        for job in self._jobs:
            self._service._detach(job, self)
        self._open.clear()
        self._finish()
        return cancelled


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
    max_events:
        Per-run event budget forwarded to the simulator.
    runner:
        Test seam: a synchronous callable ``runner(config_dict) ->
        RunResult`` executed on a thread instead of the process pool.
    """

    def __init__(
        self,
        workers: int | None = None,
        store: ArtifactStore | str | os.PathLike | bool | None = None,
        *,
        max_events: int | None = None,
        runner: Callable[[dict], RunResult] | None = None,
    ):
        self.store = open_store(store)
        self.max_events = max_events
        self._runner = runner
        self._pool = WorkerPool(workers)
        self._scheduler = FairShareScheduler()
        self._inflight: dict[str, Job] = {}
        self._watchers: dict[str, list[SweepHandle]] = {}
        self._tasks: dict[str, asyncio.Task] = {}
        self._timeouts: dict[str, float | None] = {}
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._dispatcher: asyncio.Task | None = None
        self._closing = False
        self._abandoned = False
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

    async def close(self, drain: bool = True) -> None:
        """Stop the service.

        ``drain=True`` (the default) finishes every accepted job
        first; ``drain=False`` cancels queued and running jobs (their
        watchers see ``failed`` events with
        :class:`~repro.errors.JobCancelledError` attached).
        """
        if self._closing:
            return
        self._closing = True
        if not drain:
            for job in self._scheduler.drain():
                self._fail(
                    job,
                    JobCancelledError(
                        f"job {job.label!r} cancelled: service shutting down"
                    ),
                )
            for task in list(self._tasks.values()):
                task.cancel()
        self._wake.set()
        await self._idle.wait()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        self._pool.shutdown(wait=not self._abandoned, cancel_pending=self._abandoned)

    async def __aenter__(self) -> "SimulationService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close(drain=exc_type is None)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def set_weight(self, client: str, weight: float) -> None:
        """Set ``client``'s fair-share weight (default 1.0)."""
        self._scheduler.set_weight(client, weight)

    async def submit(
        self,
        configs: Iterable[WorkStealingConfig | dict] | WorkStealingConfig,
        *,
        client: str = "default",
        priority: int = 0,
        weight: float | None = None,
        timeout: float | None = None,
    ) -> SweepHandle:
        """Submit a sweep; returns its :class:`SweepHandle` immediately.

        The whole sweep is validated first (a bad entry raises before
        anything is counted or queued); then every config is resolved
        in order: **store hit** (job is born terminal in state
        ``cached``), **in-flight join** (an equal fingerprint is
        already queued or running — this sweep watches that job
        instead of spawning another execution), or **fresh job**
        (queued under ``client``/``priority`` for fair-share
        dispatch).  ``timeout`` bounds each fresh job's execution
        wall-clock; an overrunning worker is abandoned and the job
        fails with :class:`~repro.errors.JobTimeoutError`.
        """
        if self._closing:
            raise ServiceError("service is closed; submit rejected")
        if isinstance(configs, (WorkStealingConfig, dict)):
            configs = [configs]
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {timeout}")
        resolved = resolve(configs)
        if weight is not None:
            self._scheduler.set_weight(client, weight)

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
                priority=priority,
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
            self._timeouts[job.id] = timeout
            self._idle.clear()
            self._scheduler.push(job)

        handle = SweepHandle(self, jobs)
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
                if job is None:  # cancelled between wake and acquire
                    slots.release()
                    break
                task = asyncio.create_task(
                    self._run_job(job, slots), name=f"repro-{job.id}"
                )
                self._tasks[job.id] = task

    async def _run_job(self, job: Job, slots: asyncio.Semaphore) -> None:
        job.state = JobState.STARTED
        job.started_at = time.monotonic()
        self._emit(job, JobState.STARTED)
        timeout = self._timeouts.get(job.id)
        try:
            payload, elapsed = await self._execute(job, timeout)
            result = land(self.store, job.fingerprint, job.config, payload, elapsed)
        except asyncio.CancelledError:
            # Cancellation is initiated by this service (handle.cancel
            # or close(drain=False)); surface it, don't re-raise.
            self._fail(
                job, JobCancelledError(f"job {job.label!r} was cancelled")
            )
        except asyncio.TimeoutError:
            self._abandoned = True
            self._fail(
                job,
                JobTimeoutError(
                    f"job {job.label!r} exceeded its {timeout}s budget "
                    "and was abandoned"
                ),
                elapsed=timeout or 0.0,
            )
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

    async def _execute(
        self, job: Job, timeout: float | None
    ) -> tuple[str, float]:
        """One simulation, on the pool (or the injected runner).

        Returns the worker reply without its index:
        ``(result_json, elapsed)``.
        """
        if self._runner is not None:
            loop = asyncio.get_running_loop()
            start = time.perf_counter()
            result = await asyncio.wait_for(
                loop.run_in_executor(None, self._runner, dict(job.config)),
                timeout,
            )
            return result.to_json(), time.perf_counter() - start
        future = self._pool.submit(job.config, max_events=self.max_events)
        try:
            _, payload, elapsed = await asyncio.wait_for(
                asyncio.wrap_future(future), timeout
            )
        except (asyncio.TimeoutError, asyncio.CancelledError):
            future.cancel()  # abandon; the worker process runs on
            raise
        return payload, elapsed

    # ------------------------------------------------------------------
    # Completion plumbing
    # ------------------------------------------------------------------

    def _fail(self, job: Job, error: BaseException, elapsed: float = 0.0) -> None:
        if job.terminal:
            return
        self._counts["failed"] += 1
        job.state = JobState.FAILED
        job.error = error
        job.elapsed = elapsed
        job.finished_at = time.monotonic()
        self._emit(job, JobState.FAILED, elapsed=elapsed, error=str(error))
        self._settle(job)

    def _settle(self, job: Job) -> None:
        """Terminal bookkeeping: leave the in-flight index, free watchers."""
        self._inflight.pop(job.fingerprint, None)
        self._tasks.pop(job.id, None)
        self._timeouts.pop(job.id, None)
        self._watchers.pop(job.id, None)
        if not self._inflight and not self._scheduler:
            self._idle.set()

    def _emit(
        self,
        job: Job,
        state: JobState,
        *,
        elapsed: float = 0.0,
        cached: bool = False,
        error: str | None = None,
    ) -> None:
        for handle in list(self._watchers.get(job.id, ())):
            self._emit_to(
                handle, job, state, elapsed=elapsed, cached=cached, error=error
            )

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

    def _detach(self, job: Job, handle: SweepHandle) -> None:
        watchers = self._watchers.get(job.id)
        if watchers is not None:
            try:
                watchers.remove(handle)
            except ValueError:
                pass
            if not watchers:
                del self._watchers[job.id]

    async def _cancel_jobs(self, handle: SweepHandle, jobs: Iterable[Job]) -> int:
        """Cancel ``handle``'s sole-watched jobs; shared jobs run on."""
        cancelled = 0
        to_await: list[asyncio.Task] = []
        for job in {j.id: j for j in jobs}.values():
            if job.terminal:
                continue
            if self._watchers.get(job.id, []) != [handle]:
                continue  # someone else still wants this result
            if self._scheduler.remove(job):
                self._fail(
                    job, JobCancelledError(f"job {job.label!r} was cancelled")
                )
                cancelled += 1
            else:
                task = self._tasks.get(job.id)
                if task is not None:
                    task.cancel()
                    to_await.append(task)
                    cancelled += 1
        for task in to_await:
            try:
                await task
            except asyncio.CancelledError:
                pass
        return cancelled

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
