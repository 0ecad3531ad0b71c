"""The paper's primary contribution: victim selection strategies and
the scheduling-latency metric.

* :mod:`repro.core.victim` — pluggable victim-selection strategies,
  including the paper's three protagonists (deterministic round-robin,
  uniform random, distance-skewed "Tofu") plus related-work
  comparators;
* :mod:`repro.core.steal_policy` — how much to steal (one chunk vs
  half the stealable chunks);
* :mod:`repro.core.tracing` — lightweight per-rank activity traces
  with clock-skew handling;
* :mod:`repro.core.metrics` — the starting/ending scheduling-latency
  metric (``SL(x)``, ``EL(x)``) and occupancy analysis;
* :mod:`repro.core.sessions` — work-discovery session statistics;
* :mod:`repro.core.config` — the work-stealing run configuration;
* :mod:`repro.core.jobs` — the job lifecycle dataclasses
  shared by the batch executor and the simulation service.
"""

from repro.core.victim import (
    VictimSelector,
    SelectorFactory,
    RoundRobinSelector,
    UniformRandomSelector,
    DistanceSkewedSelector,
    PowerSkewedSelector,
    LatencySkewedSelector,
    HierarchicalSelector,
    LastVictimSelector,
)
from repro.core.steal_policy import (
    StealPolicy,
    StealOne,
    StealHalf,
    StealFraction,
)
from repro.core.tracing import ActivityTrace
from repro.core.metrics import (
    OccupancyCurve,
    latency_profile,
)
from repro.core.sessions import SessionStats, summarize_sessions
from repro.core.config import WorkStealingConfig
from repro.core.jobs import Job, JobEvent, JobFailure, JobState

__all__ = [
    "VictimSelector",
    "SelectorFactory",
    "RoundRobinSelector",
    "UniformRandomSelector",
    "DistanceSkewedSelector",
    "PowerSkewedSelector",
    "LatencySkewedSelector",
    "HierarchicalSelector",
    "LastVictimSelector",
    "StealPolicy",
    "StealOne",
    "StealHalf",
    "StealFraction",
    "ActivityTrace",
    "OccupancyCurve",
    "latency_profile",
    "SessionStats",
    "summarize_sessions",
    "WorkStealingConfig",
    "Job",
    "JobEvent",
    "JobFailure",
    "JobState",
]
