"""repro.service — simulation-as-a-service over :mod:`repro.exec`.

A long-running asyncio job front-end for the work-stealing simulator:

* :class:`SimulationService` — accepts sweep submissions, dedups them
  against the store *and* against work already in flight
  (one fingerprint, one execution), schedules with priority +
  weighted fair share onto a shared worker pool, and streams typed
  :class:`~repro.core.jobs.JobEvent`\\ s;
* :class:`SweepHandle` — one submission's progress stream and results;
* :class:`FairShareScheduler` — the deterministic queue discipline
  (priority bands, stride-scheduled weighted fair share, per-client
  FIFO);
* :class:`ArtifactStore` — the versioned result store with
  size-bounded LRU eviction (:mod:`repro.exec.store`, re-exported);
* ``python -m repro.service`` — submit preset sweeps from the shell.
"""

from repro.core.jobs import Job, JobEvent, JobFailure, JobState
from repro.exec.store import ArtifactStore, StoreStats
from repro.service.scheduler import ClientShare, FairShareScheduler
from repro.service.service import ServiceStats, SimulationService, SweepHandle

__all__ = [
    "SimulationService",
    "SweepHandle",
    "ServiceStats",
    "FairShareScheduler",
    "ClientShare",
    "ArtifactStore",
    "StoreStats",
    "Job",
    "JobEvent",
    "JobFailure",
    "JobState",
]
