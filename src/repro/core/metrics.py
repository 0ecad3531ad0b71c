"""The scheduling-latency metric (§III of the paper).

Given the activity trace of a run of total duration ``T``:

* ``workers(t)`` — number of ranks active at time ``t``;
* occupancy ``O(t) = workers(t) / N``;
* **starting latency** ``SL(x) = min{t : O(t) >= x} / T`` — the first
  time, as a fraction of the runtime, at which occupancy ``x`` was
  reached ("an execution where the first time 10% of the processes
  have work happens 5% of the execution time after beginning has
  SL(10%) = 5%");
* **ending latency** ``EL(x) = (T - max{t : O(t) >= x}) / T`` — how
  far from the end the scheduler last sustained occupancy ``x``.

Both are reported against an occupancy grid to regenerate the paper's
Figures 4, 5, 12 and 13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.tracing import ActivityTrace
from repro.errors import TraceError

__all__ = [
    "OccupancyCurve",
    "latency_profile",
    "LatencyProfile",
]


class OccupancyCurve:
    """The step function ``O(t)`` of a run.

    Parameters
    ----------
    trace:
        Validated activity trace.
    nranks:
        Number of processes ``N`` (the occupancy denominator).
    total_time:
        Run duration ``T``; transitions past ``T`` are an error.
    """

    def __init__(self, trace: ActivityTrace, nranks: int, total_time: float):
        if total_time <= 0:
            raise TraceError(f"total_time must be > 0, got {total_time}")
        if nranks < 1:
            raise TraceError(f"nranks must be >= 1, got {nranks}")
        self.nranks = int(nranks)
        self.total_time = float(total_time)
        times, counts = trace.active_count_curve()
        if times.size and times[-1] > total_time * (1 + 1e-9):
            raise TraceError(
                f"trace extends to {times[-1]} past total_time {total_time}"
            )
        self._times = times
        self._counts = counts

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------

    def workers(self, t: float) -> int:
        """``workers(t)``: active ranks at time ``t``."""
        if not self._times.size or t < self._times[0]:
            return 0
        idx = int(np.searchsorted(self._times, t, side="right")) - 1
        return int(self._counts[idx])

    def occupancy(self, t: float) -> float:
        """``O(t) = workers(t) / N``."""
        return self.workers(t) / self.nranks

    @property
    def max_workers(self) -> int:
        """``Wmax``: the maximum of ``workers(t)`` over the run."""
        return int(self._counts.max()) if self._counts.size else 0

    @property
    def max_occupancy(self) -> float:
        return self.max_workers / self.nranks

    def average_occupancy(self) -> float:
        """Time-average of ``O(t)`` over ``[0, T]``."""
        if not self._times.size:
            return 0.0
        # Occupancy is 0 before the first event, so that span adds no area.
        times = np.concatenate([self._times, [self.total_time]])
        widths = np.clip(np.diff(times), 0.0, None)
        area = float((self._counts * widths).sum())
        return area / (self.nranks * self.total_time)

    # ------------------------------------------------------------------
    # Latencies
    # ------------------------------------------------------------------

    def first_time_at(self, occupancy: float) -> float | None:
        """First ``t`` with ``O(t) >= occupancy``, or None if never."""
        need = occupancy * self.nranks
        hits = np.nonzero(self._counts >= need - 1e-9)[0]
        if not hits.size:
            return None
        return float(self._times[hits[0]])

    def last_time_at(self, occupancy: float) -> float | None:
        """Last ``t`` at which ``O(t) >= occupancy`` held, or None.

        This is the *end* of the last interval whose count met the
        threshold (occupancy is sustained until the next transition).
        """
        need = occupancy * self.nranks
        hits = np.nonzero(self._counts >= need - 1e-9)[0]
        if not hits.size:
            return None
        last = int(hits[-1])
        if last + 1 < len(self._times):
            return float(self._times[last + 1])
        return self.total_time

    def starting_latency(self, occupancy: float) -> float | None:
        """``SL(x)`` as a fraction of the runtime (None if unreached)."""
        t = self.first_time_at(occupancy)
        return None if t is None else t / self.total_time

    def ending_latency(self, occupancy: float) -> float | None:
        """``EL(x)`` as a fraction of the runtime (None if unreached)."""
        t = self.last_time_at(occupancy)
        return None if t is None else (self.total_time - t) / self.total_time


@dataclass(frozen=True)
class LatencyProfile:
    """``SL``/``EL`` sampled over an occupancy grid (one paper curve)."""

    occupancies: np.ndarray
    starting: np.ndarray  # NaN where unreached
    ending: np.ndarray  # NaN where unreached
    max_occupancy: float


def latency_profile(
    trace: ActivityTrace,
    nranks: int,
    total_time: float,
    occupancies: np.ndarray | None = None,
) -> LatencyProfile:
    """Sample ``SL(x)`` and ``EL(x)`` over an occupancy grid.

    Default grid: 1%..100% in 1% steps, matching the paper's figures.
    """
    if occupancies is None:
        occupancies = np.arange(0.01, 1.0001, 0.01)
    occupancies = np.asarray(occupancies, dtype=np.float64)
    curve = OccupancyCurve(trace, nranks, total_time)
    sl = np.full(occupancies.shape, math.nan)
    el = np.full(occupancies.shape, math.nan)
    for k, x in enumerate(occupancies):
        s = curve.starting_latency(float(x))
        e = curve.ending_latency(float(x))
        if s is not None:
            sl[k] = s
        if e is not None:
            el[k] = e
    return LatencyProfile(
        occupancies=occupancies,
        starting=sl,
        ending=el,
        max_occupancy=curve.max_occupancy,
    )
