"""Parallel batch execution of work-stealing simulations.

:func:`run_many` is the batch counterpart of
:func:`repro.ws.runner.run_uts`: it takes any number of
:class:`~repro.core.config.WorkStealingConfig`\\ s and executes them
over a ``ProcessPoolExecutor``, with

* **fingerprint deduplication** — identical configs in one batch run
  once and share the (immutable) result object;
* **result caching** — an optional
  :class:`~repro.exec.store.ArtifactStore` is consulted before and
  populated after every simulation;
* **progress streaming** — an optional callback receives one
  :class:`RunProgress` per finished run, with per-run wall-clock time;
* **failure isolation** — ``return_exceptions=True`` turns per-job
  exceptions into :class:`~repro.core.jobs.JobFailure` slots instead
  of unwinding the whole batch;
* **pool reuse** — a :class:`WorkerPool` is reentrant and survives
  a worker's death, so the simulation service keeps one alive for its
  whole lifetime; :func:`run_many` starts one executor per parallel
  call, and a worker's death fails that call's every job;
* **bit-identical results** — configs are shipped to workers as plain
  dicts and results return as JSON, the same serialization single runs
  and the cache use.  Every random seed lives inside the config, so a
  parallel batch reproduces the serial results exactly, in any order,
  on any worker count.

The worker protocol is deliberately dumb: a worker receives
``(index, config_dict)``, rebuilds the config, runs the
simulation and returns ``(index, result_json, elapsed)``.  No strategy
objects, numpy arrays or tracebacks cross the process boundary except
via this one format; an ``event_trace=True`` run's event stream does
not survive the result serialization (``python -m repro.trace``
exports traces).

:func:`resolve` and :func:`land` are the two per-job steps on either
side of that protocol — what a sweep is before it runs, and what a
worker reply becomes once it returns.  :func:`run_many`'s futures loop
and the service's asyncio dispatcher both call them; the loops
themselves stay separate (DESIGN.md §5b).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.config import WorkStealingConfig
from repro.core.jobs import JobFailure
from repro.errors import ConfigurationError
from repro.exec.store import ArtifactStore, open_store
from repro.ws.results import RunResult
from repro.ws.runner import run_uts

__all__ = ["run_many", "RunProgress", "WorkerPool", "resolve", "land"]


@dataclass(frozen=True)
class RunProgress:
    """One progress tick of a :func:`run_many` batch."""

    #: Position of the finished config in the input sequence.
    index: int
    #: Total number of configs in the batch.
    total: int
    #: Configs finished so far (including this one).
    done: int
    #: Config fingerprint (the cache key).
    fingerprint: str
    #: Human-readable config label.
    label: str
    #: Wall-clock seconds this run took (0.0 for cache hits).
    elapsed: float
    #: True when the result came from the cache, not a simulation.
    cached: bool
    #: Terminal state: ``"cached"``, ``"done"`` or ``"failed"``.
    state: str = "done"
    #: ``str(exception)`` when ``state == "failed"``.
    error: str | None = None


def _execute(payload: tuple[int, dict]) -> tuple[int, str, float]:
    """Worker entry point: run one config shipped as a plain dict."""
    index, config_dict = payload
    start = time.perf_counter()
    result = run_uts(WorkStealingConfig.from_dict(config_dict))
    elapsed = time.perf_counter() - start
    return index, result.to_json(), elapsed


class WorkerPool:
    """Reusable process pool speaking the :mod:`repro.exec` worker protocol.

    A long-lived caller (the simulation service) keeps one
    ``WorkerPool`` alive so worker processes are spawned once and
    reused.
    The pool is reentrant: any number of direct :meth:`submit`\\ s may
    share it concurrently — the underlying executor serialises
    scheduling.

    The executor is created lazily on first submission, so a
    ``WorkerPool`` is cheap to construct and safe to keep as a
    default.
    """

    def __init__(self, workers: int | None = None):
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self._requested = workers
        self._executor: ProcessPoolExecutor | None = None

    @property
    def workers(self) -> int:
        """Worker process count (``None`` request -> ``os.cpu_count()``)."""
        return self._requested or os.cpu_count() or 1

    def _ensure(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def submit(
        self,
        config_dict: dict,
        *,
        index: int = 0,
        _worker: Callable | None = None,
    ) -> Future:
        """Run one config dict on the pool.

        Returns a future of the worker protocol's
        ``(index, result_json, elapsed)`` tuple.  ``_worker``
        replaces :func:`_execute`, as in :func:`run_many` (a test
        seam).

        A worker process that died (killed, out of memory) breaks its
        executor for good: the jobs it had fail, and the next submission
        starts a fresh executor instead of failing too.
        """
        payload = (index, config_dict)
        try:
            return self._ensure().submit(_worker or _execute, payload)
        except BrokenProcessPool:
            self.shutdown()
            return self._ensure().submit(_worker or _execute, payload)

    def shutdown(self) -> None:
        """Stop the executor once its jobs are done; the pool can be
        reused afterwards (lazily)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def resolve(
    configs: Iterable[WorkStealingConfig | dict],
) -> list[tuple[WorkStealingConfig, dict, str]]:
    """``(config, payload, fingerprint)`` for every entry of a sweep.

    The whole sweep is validated here, before anything is looked up,
    enqueued or counted: one bad entry raises
    :class:`~repro.errors.ConfigurationError` and nothing has run.
    A config object brings its own identity
    (:attr:`~repro.core.config.WorkStealingConfig.payload` and
    :meth:`~repro.core.config.WorkStealingConfig.fingerprint`),
    computed once, on first use, so a resubmitted object costs two
    attribute reads.  A dict is rebuilt with
    :meth:`~repro.core.config.WorkStealingConfig.from_dict` and
    serialized again on every call.

    The payload is the config's shared dict, read-only for everything
    downstream (the job, the store entry, the worker).
    """
    resolved = []
    for config in configs:
        if isinstance(config, dict):
            config = WorkStealingConfig.from_dict(config)
        elif not isinstance(config, WorkStealingConfig):
            raise ConfigurationError(
                "a sweep takes WorkStealingConfig objects or config "
                f"dicts, got {type(config).__name__}"
            )
        resolved.append((config, config.payload, config.fingerprint()))
    return resolved


def land(
    store: ArtifactStore | None,
    fingerprint: str,
    config_dict: dict,
    result_json: str,
    elapsed: float,
) -> RunResult:
    """Turn one worker reply into a result, stored when there is a store.

    The only code that writes a finished run back.
    """
    result = RunResult.from_json(result_json)
    if store is not None:
        store.put(fingerprint, result, config=config_dict, elapsed=elapsed)
    return result


def run_many(
    configs: Iterable[WorkStealingConfig | dict],
    *,
    jobs: int | None = 1,
    store: ArtifactStore | str | os.PathLike | bool | None = None,
    progress: Callable[[RunProgress], None] | None = None,
    return_exceptions: bool = False,
    _worker: Callable | None = None,
) -> list[RunResult | JobFailure]:
    """Run a batch of configs, in parallel, and return their results.

    Parameters
    ----------
    configs:
        :class:`WorkStealingConfig` objects (or ``to_dict`` dicts).
        Duplicates (same fingerprint) are simulated once and share one
        result object.
    jobs:
        Worker processes.  ``1`` (the default) runs everything in this
        process; ``None`` uses ``os.cpu_count()``.  Results are
        independent of ``jobs`` — same configs, same results, bit for
        bit.
    store:
        ``True`` for the default on-disk result store
        (``benchmarks/_cache/``), a path or
        :class:`~repro.exec.store.ArtifactStore` for a specific one,
        ``None``/``False`` to disable
        (:func:`~repro.exec.store.open_store`).  Hits skip the
        simulator entirely; misses are written back after running.
    progress:
        Called once per finished config with a :class:`RunProgress`
        (cache hits first, then completions in finish order).
    return_exceptions:
        With ``True``, a job that raises produces a
        :class:`~repro.core.jobs.JobFailure` carrying the exception in
        its slot, and the rest of the batch completes normally.  With ``False`` (the
        default) the first failure propagates.

    Returns
    -------
    One entry per input config, in input order: a ``RunResult``, or a
    ``JobFailure`` when that job failed and ``return_exceptions=True``.
    """
    workers = jobs if jobs is not None else (os.cpu_count() or 1)
    if workers < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    resolved = resolve(configs)
    total = len(resolved)
    result_store = open_store(store)

    results: list[RunResult | JobFailure | None] = [None] * total
    #: fingerprint -> indices sharing that config (batch deduplication).
    groups: dict[str, list[int]] = {}
    for i, (_, _, fp) in enumerate(resolved):
        groups.setdefault(fp, []).append(i)

    done = 0

    def _emit(fp: str, value, elapsed: float, state: str, error=None) -> None:
        nonlocal done
        for i in groups[fp]:
            results[i] = value
            done += 1
            if progress is not None:
                progress(
                    RunProgress(
                        index=i,
                        total=total,
                        done=done,
                        fingerprint=fp,
                        label=value.label,
                        elapsed=elapsed,
                        cached=state == "cached",
                        state=state,
                        error=error,
                    )
                )

    # Cache pass: resolve whole groups without touching the simulator.
    pending: list[tuple[int, dict]] = []
    for fp, indices in groups.items():
        hit = result_store.get(fp) if result_store is not None else None
        if hit is not None:
            _emit(fp, hit, 0.0, "cached")
        else:
            pending.append((indices[0], resolved[indices[0]][1]))

    def _complete(index: int, payload: str, elapsed: float) -> None:
        _, config_dict, fp = resolved[index]
        result = land(result_store, fp, config_dict, payload, elapsed)
        _emit(fp, result, elapsed, "done")

    def _fail(index: int, exc: BaseException, elapsed: float) -> None:
        config, _, fp = resolved[index]
        failure = JobFailure(
            fingerprint=fp,
            label=config.label(),
            error=exc,
            elapsed=elapsed,
        )
        _emit(fp, failure, elapsed, "failed", error=str(exc))

    worker = _worker or _execute

    if pending:
        workers = min(workers, len(pending))
        if workers == 1:
            # Serial fast path: no process-pool overhead.
            for payload in pending:
                try:
                    _complete(*worker(payload))
                except Exception as exc:
                    if not return_exceptions:
                        raise
                    _fail(payload[0], exc, 0.0)
        else:
            _run_on_pool(
                pending,
                workers=workers,
                worker=worker,
                return_exceptions=return_exceptions,
                complete=_complete,
                fail=_fail,
            )

    return results  # type: ignore[return-value]  # every slot is filled


def _run_on_pool(
    pending: list[tuple[int, dict]],
    *,
    workers: int,
    worker: Callable,
    return_exceptions: bool,
    complete: Callable,
    fail: Callable,
) -> None:
    """Execute ``pending`` payloads on one executor of their own.

    The whole sweep goes to that one executor: a worker's death breaks
    it, and every job of the sweep fails, whether it was submitted
    before the death was noticed or after (no restart, unlike
    :meth:`WorkerPool.submit`).
    """
    executor = ProcessPoolExecutor(max_workers=workers)
    abandoned = False
    try:
        futures: dict[Future, int] = {}
        for index, config_dict in pending:
            try:
                futures[executor.submit(worker, (index, config_dict))] = index
            except BrokenProcessPool as exc:
                if not return_exceptions:
                    abandoned = bool(futures)
                    raise
                fail(index, exc, 0.0)
        waiting = set(futures)
        while waiting:
            finished, _ = _futures_wait(waiting, return_when=FIRST_COMPLETED)
            for future in finished:
                waiting.discard(future)
                index = futures[future]
                try:
                    payload = future.result()
                except Exception as exc:
                    if not return_exceptions:
                        abandoned = bool(waiting)
                        raise
                    fail(index, exc, 0.0)
                else:
                    complete(*payload)
    finally:
        # Jobs still running when an error propagates must not wedge
        # the caller: drop the executor without waiting for them.
        executor.shutdown(wait=not abandoned, cancel_futures=abandoned)
