"""repro.service — simulation-as-a-service over :mod:`repro.exec`.

An asyncio job front-end for the work-stealing simulator:

* :class:`SimulationService` — accepts sweep submissions, dedups them
  against the store *and* against work already in flight
  (one fingerprint, one execution), dispatches with an equal share
  per client onto a shared worker pool, and streams typed
  :class:`~repro.core.jobs.JobEvent`\\ s;
* :class:`SweepHandle` — one submission's progress stream and results;
* :class:`FairShareScheduler` — the deterministic queue discipline
  (stride-scheduled equal share across clients, per-client FIFO).

A grid of independent runs needs none of this: ``run_many(configs,
store=...)`` serves it with the same dedup, pool and store.
"""

from repro.core.jobs import Job, JobEvent, JobFailure, JobState
from repro.service.scheduler import ClientShare, FairShareScheduler
from repro.service.service import ServiceStats, SimulationService, SweepHandle

__all__ = [
    "SimulationService",
    "SweepHandle",
    "ServiceStats",
    "FairShareScheduler",
    "ClientShare",
    "Job",
    "JobEvent",
    "JobFailure",
    "JobState",
]
