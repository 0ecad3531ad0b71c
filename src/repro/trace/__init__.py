"""Structured steal-event tracing for the work-stealing simulator.

The activity traces of :mod:`repro.core.tracing` record *that* a rank
was busy; this package records *why* — every victim draw, steal
request, reply, denial, lifeline transition and termination-wave step,
with enough provenance to reconstruct the scheduler's decisions after
the fact.

Layers:

* :mod:`repro.trace.events` — the event types and the validated
  :class:`EventTrace` view of the per-rank event lists the workers
  append to when ``event_trace=True``;
* :mod:`repro.trace.analysis` — :class:`TraceAnalysis`: steal-success
  rates, reply-latency distributions, victim-draw distances,
  failed-attempt chains;
* :mod:`repro.trace.chrome` — Chrome-trace / Perfetto JSON export and
  the structural validator CI runs;
* ``python -m repro.trace`` — run a preset experiment traced and emit
  the JSON plus a text summary.

Tracing is observationally free: it never changes the simulation's
event stream, results, or config fingerprints (the ``event_trace``
flag is excluded from fingerprinting).
"""

from __future__ import annotations

from repro.trace.analysis import TraceAnalysis
from repro.trace.chrome import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.trace.events import (
    EVENT_NAMES,
    EVENT_SCHEMA,
    EventTrace,
)

__all__ = [
    "EventTrace",
    "EVENT_NAMES",
    "EVENT_SCHEMA",
    "TraceAnalysis",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
]
