"""High-level distributed work-stealing API.

:func:`repro.ws.runner.run_uts` is the front door of the library: give
it a :class:`~repro.core.config.WorkStealingConfig` (or the pieces of
one) and get back a :class:`~repro.ws.results.RunResult` with every
number the paper reports — runtime, speedup, efficiency, failed
steals, search times, work-discovery sessions and the activity trace
feeding the scheduling-latency metric.
"""

from repro.ws.results import RunResult
from repro.ws.runner import run_uts

__all__ = ["RunResult", "run_uts"]
