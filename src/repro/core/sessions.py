"""Work-discovery session statistics.

§IV-B of the paper: "A work discovery session starts when a process
exhaust its work and ends with either work in the queue or application
termination."  Figure 10 reports the *average duration* of these
sessions; §V-A adds the *search time* ("the portion of the execution
time a process was waiting for a steal answer") and failed-steal
counts.

A session is one idle period of a worker's idle log
(:class:`repro.protocol.core.Worker`); this module aggregates their
durations and steal attempts across ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError

__all__ = ["SessionStats", "summarize_sessions"]


@dataclass(frozen=True)
class SessionStats:
    """Aggregate over all sessions of a run."""

    count: int
    successful: int
    mean_duration: float
    max_duration: float
    total_search_time: float
    mean_attempts: float
    sessions_per_rank: float


def summarize_sessions(
    durations: list[float], attempts: list[int], nranks: int
) -> SessionStats:
    """Aggregate session statistics (Fig 10 / Fig 14 inputs).

    ``durations`` and ``attempts`` list every session of the run, in
    rank order.  Each rank's last session ends with termination, so all
    but ``nranks`` of them found work.
    """
    if nranks < 1:
        raise TraceError(f"nranks must be >= 1, got {nranks}")
    if not durations:
        return SessionStats(
            count=0,
            successful=0,
            mean_duration=0.0,
            max_duration=0.0,
            total_search_time=0.0,
            mean_attempts=0.0,
            sessions_per_rank=0.0,
        )
    d = np.array(durations)
    return SessionStats(
        count=len(durations),
        successful=len(durations) - nranks,
        mean_duration=float(d.mean()),
        max_duration=float(d.max()),
        total_search_time=float(d.sum()),
        mean_attempts=float(np.array(attempts).mean()),
        sessions_per_rank=len(durations) / nranks,
    )
