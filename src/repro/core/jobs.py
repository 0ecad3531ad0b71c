"""Job dataclasses for batch and service execution.

One simulation request — whether it comes from a :func:`repro.run_many`
batch or a :class:`repro.service.SimulationService` sweep — moves
through the same typed lifecycle:

``queued`` -> ``started`` -> ``done``
                          -> ``failed``
``cached`` (terminal immediately: the store already held the result,
the simulator is never touched)

:class:`Job` is the mutable record of one *deduplicated* simulation
(many submissions of the same fingerprint share one job);
:class:`JobEvent` is the immutable progress tick streamed to
subscribers; :class:`JobFailure` is the failed-slot placeholder
``run_many(..., return_exceptions=True)`` returns in place of a
result.

The module is deliberately leaf-level (stdlib imports only) so both
:mod:`repro.exec` and :mod:`repro.service` can share it without import
cycles; ``Job.result`` is typed loosely for the same reason.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ws.results import RunResult

__all__ = ["JobState", "Job", "JobEvent", "JobFailure"]


class JobState(str, enum.Enum):
    """Lifecycle states of one simulation job."""

    QUEUED = "queued"
    STARTED = "started"
    CACHED = "cached"
    DONE = "done"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        """True once the job can never change state again."""
        return self in (JobState.CACHED, JobState.DONE, JobState.FAILED)


#: Monotonic job-id source (process-wide; ids are opaque strings).
_JOB_IDS = itertools.count(1)


def next_job_id() -> str:
    """Fresh opaque job id, unique within this process."""
    return f"job-{next(_JOB_IDS)}"


@dataclass(eq=False)
class Job:
    """One deduplicated simulation request and everything known about it."""

    id: str
    #: Config fingerprint — the dedup/cache key.
    fingerprint: str
    #: The config's shared ``WorkStealingConfig.payload`` (what workers
    #: receive); read-only.
    config: dict
    #: Human-readable config label.
    label: str
    #: Client that first submitted the job (fair-share accounting key).
    client: str = "default"
    state: JobState = JobState.QUEUED
    #: Service-clock (``time.monotonic``) timestamps.
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: Wall-clock seconds the simulation itself took (0.0 for hits).
    elapsed: float = 0.0
    result: "RunResult | None" = None
    error: BaseException | None = None

    @property
    def terminal(self) -> bool:
        return self.state.terminal


@dataclass(frozen=True)
class JobEvent:
    """One progress tick of a job, streamed to every subscriber."""

    job_id: str
    state: JobState
    fingerprint: str
    label: str
    client: str
    #: Service-clock (``time.monotonic``) timestamp of the transition.
    timestamp: float
    #: Simulation wall-clock seconds (terminal events only).
    elapsed: float = 0.0
    #: True when the result came from the store.
    cached: bool = False
    #: ``str(exception)`` for ``failed`` events.
    error: str | None = None


@dataclass(frozen=True)
class JobFailure:
    """Failed slot in a ``run_many(..., return_exceptions=True)`` batch.

    Carries the exception that stopped the job so callers can triage
    without the whole sweep unwinding.
    """

    fingerprint: str
    label: str
    error: BaseException
    elapsed: float = 0.0
