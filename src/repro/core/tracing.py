"""Lightweight activity traces of the work-stealing scheduler.

§III of the paper: "Assuming there exists a trace of all processes
indicating the time of each transition from one type of phase to the
other ...".  A process is *active* while its stack holds work
(including time spent answering steal requests) and *inactive* while
it searches for work.

:class:`ActivityTrace` is the post-mortem, validated, immutable view
the metrics operate on: per rank, a time and the new state at each
transition ("as the trace only contains a time and the new state at
each phase transition, it is lightweight"), with the clock-skew
adjustment the paper applies ("the trace modified to account for clock
skew").  A run's trace is derived from its workers' idle logs
(:meth:`ActivityTrace.from_idle_log`): the phase transitions are where
idle periods start and end.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError

__all__ = ["ActivityTrace"]


class ActivityTrace:
    """Validated activity trace of a whole run.

    Attributes
    ----------
    nranks:
        Number of ranks traced.
    transitions:
        Per-rank ``(times, states)`` arrays, in a tuple; times
        non-decreasing and states strictly alternating (an active
        transition follows an inactive one and vice versa).  The
        arrays are read-only once validated, so the trace stays the
        one that was checked.
    """

    def __init__(self, transitions: list[tuple[np.ndarray, np.ndarray]]):
        if not transitions:
            raise TraceError("trace must cover at least one rank")
        checked = []
        for rank, (times, states) in enumerate(transitions):
            times = np.asarray(times, dtype=np.float64)
            states = np.asarray(states, dtype=bool)
            if times.shape != states.shape:
                raise TraceError(
                    f"rank {rank}: times/states length mismatch "
                    f"({len(times)} vs {len(states)})"
                )
            # Non-finite timestamps must be rejected explicitly: NaN
            # compares False against everything, so a NaN-tainted
            # trace would sail through the ordering check below and
            # only corrupt the metrics much later.
            if times.size and not np.all(np.isfinite(times)):
                raise TraceError(f"rank {rank}: non-finite timestamps")
            if times.size and np.any(np.diff(times) < 0):
                raise TraceError(f"rank {rank}: times not sorted")
            if states.size > 1 and np.any(states[1:] == states[:-1]):
                raise TraceError(f"rank {rank}: states do not alternate")
            times.flags.writeable = False
            states.flags.writeable = False
            checked.append((times, states))
        self.transitions = tuple(checked)
        self.nranks = len(self.transitions)

    @classmethod
    def from_idle_log(
        cls,
        starts: list[list[float]],
        ends: list[list[float]],
        offsets: np.ndarray,
    ) -> "ActivityTrace":
        """Derive the trace of a finished run from its idle logs.

        ``starts[r]`` and ``ends[r]`` are rank ``r``'s idle periods in
        true time, the last one ending at termination.  Rank 0 holds
        the root, so it is active from 0; every other rank starts idle
        and has no edge until its first period ends.  After that each
        period start is an inactive edge and each period end but the
        last an active one.  Each rank's times are stamped on its
        skewed clock and corrected, ``(t + off) - off``, as the paper
        treats traces from unsynchronised nodes.
        """
        transitions = []
        for rank, (s, e) in enumerate(zip(starts, ends)):
            periods = np.empty(2 * len(s))
            periods[0::2] = s
            periods[1::2] = e
            if rank == 0:
                times = np.concatenate(([0.0], periods[:-1]))
            else:
                times = periods[1:-1]
            off = offsets[rank]
            transitions.append(
                ((times + off) - off, np.arange(times.size) % 2 == 0)
            )
        return cls(transitions)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def active_count_curve(self) -> tuple[np.ndarray, np.ndarray]:
        """Merge all transitions into the step function ``workers(t)``.

        Returns ``(times, counts)``: at any ``t`` in
        ``[times[k], times[k+1])`` exactly ``counts[k]`` ranks are
        active.  Ranks that never logged a transition count as never
        active.
        """
        all_times: list[np.ndarray] = []
        all_deltas: list[np.ndarray] = []
        for times, states in self.transitions:
            if not times.size:
                continue
            all_times.append(times)
            all_deltas.append(np.where(states, 1, -1))
        if not all_times:
            return np.empty(0), np.empty(0, dtype=np.int64)
        times = np.concatenate(all_times)
        deltas = np.concatenate(all_deltas)
        order = np.argsort(times, kind="stable")
        times = times[order]
        deltas = deltas[order]
        counts = np.cumsum(deltas)
        # Collapse simultaneous transitions into the final count.  The
        # comparison is epsilon-tolerant: the clock-skew round trip of
        # from_idle_log, (t + off) - off, perturbs timestamps by a few
        # ulp, and transitions that were simultaneous before the round
        # trip must still collapse — otherwise zero-width occupancy
        # spikes appear and threshold metrics (max occupancy, SL/EL
        # crossings) flip.
        # 1e-12 s is far below any simulated event spacing (>= ns).
        keep = np.concatenate([np.diff(times) > 1e-12, [True]])
        return times[keep], counts[keep]

    def busy_time(self, rank: int, end_time: float) -> float:
        """Total time ``rank`` spent active in ``[0, end_time]``."""
        times, states = self.transitions[rank]
        busy = 0.0
        current_start: float | None = None
        for t, active in zip(times, states):
            if active:
                current_start = min(float(t), end_time)
            elif current_start is not None:
                busy += min(float(t), end_time) - current_start
                current_start = None
        if current_start is not None:
            busy += max(0.0, end_time - current_start)
        return busy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n_events = sum(len(t) for t, _ in self.transitions)
        return f"ActivityTrace(nranks={self.nranks}, events={n_events})"
