"""Refined results of a distributed work-stealing run.

:class:`RunResult` derives every quantity the paper's evaluation
reports from the raw :class:`~repro.sim.cluster.SimOutcome`:

* runtime, speedup and efficiency against the extrapolated
  single-process baseline (the paper's T3WL baseline is itself
  extrapolated from the nodes/second rate, §II-B);
* failed/successful steal counts (Figs 7, 15);
* per-process average search time (Fig 14) and work-discovery session
  statistics (Fig 10);
* the skew-corrected activity trace and its scheduling-latency
  profile (Figs 4, 5, 12, 13).

The search times, the session statistics and the activity trace are
three views of one record, each worker's idle log; all three are
derived here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from repro.core.metrics import LatencyProfile, OccupancyCurve, latency_profile
from repro.core.sessions import SessionStats, summarize_sessions
from repro.core.tracing import ActivityTrace
from repro.errors import ReproError
from repro.sim.clock import ClockSkewModel
from repro.sim.cluster import SimOutcome

__all__ = ["RunResult"]

#: ``SessionStats`` is frozen and holds only scalars, so a shallow
#: field dict is the ``asdict`` payload without its deep copy.
_SESSION_FIELDS = tuple(f.name for f in fields(SessionStats))


@dataclass(frozen=True, eq=False)
class RunResult:
    """Everything the paper measures, for one run.

    An immutable value: its fields cannot be assigned and its arrays
    (the per-rank counts and the activity trace's) are read-only, so
    one object may be handed to every holder of the same run (store
    memo hits, :func:`~repro.exec.pool.run_many`'s deduplicated slots,
    a service join) without any of them changing what the others see.
    Equality is identity: distinct results compare by :meth:`to_json`.
    """

    label: str
    tree_name: str
    nranks: int
    allocation: str
    selector: str
    steal_policy: str
    compute_rounds: int

    total_nodes: int
    total_time: float
    baseline_time: float

    steal_requests: int
    failed_steals: int
    successful_steals: int
    nodes_stolen: int
    chunks_stolen: int

    search_time_total: float
    sessions: SessionStats
    per_rank_nodes: np.ndarray
    per_rank_search_time: np.ndarray

    events_processed: int
    messages_dropped: int
    probes_started: int

    #: Steal requests relayed onward instead of denied (the forwarding
    #: protocol extension; 0 for the reference protocol).  Defaulted so
    #: result dicts cached before the field existed still load.
    requests_forwarded: int = 0

    trace: ActivityTrace | None = None
    #: Structured steal-event trace (``event_trace=True`` runs).
    #: Diagnostic-only: deliberately NOT serialized by :meth:`to_dict`
    #: — event streams are for post-mortem analysis of a live run
    #: (:mod:`repro.trace`), not for the result cache, and cached
    #: results therefore round-trip without them.
    events: "object | None" = field(default=None, repr=False)
    _profile: LatencyProfile | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # The trace's arrays are read-only from its construction.
        self.per_rank_nodes.flags.writeable = False
        self.per_rank_search_time.flags.writeable = False

    # ------------------------------------------------------------------
    # Paper headline numbers
    # ------------------------------------------------------------------

    @property
    def speedup(self) -> float:
        """``T1 / TN`` against the extrapolated sequential baseline."""
        return self.baseline_time / self.total_time

    @property
    def efficiency(self) -> float:
        """``speedup / N`` (Fig 2's y-axis)."""
        return self.speedup / self.nranks

    @property
    def nodes_per_second(self) -> float:
        return self.total_nodes / self.total_time

    @property
    def mean_search_time(self) -> float:
        """Average per-process search time (Fig 14's y-axis)."""
        return self.search_time_total / self.nranks

    @property
    def mean_session_duration(self) -> float:
        """Average work-discovery session duration (Fig 10's y-axis)."""
        return self.sessions.mean_duration

    # ------------------------------------------------------------------
    # Scheduling-latency metric
    # ------------------------------------------------------------------

    def occupancy_curve(self) -> OccupancyCurve:
        if self.trace is None:
            raise ReproError(
                "run was not traced; pass trace=True in the config"
            )
        return OccupancyCurve(self.trace, self.nranks, self.total_time)

    def latency_profile(
        self, occupancies: np.ndarray | None = None
    ) -> LatencyProfile:
        if self.trace is None:
            raise ReproError(
                "run was not traced; pass trace=True in the config"
            )
        if occupancies is None:
            if self._profile is None:
                object.__setattr__(
                    self,
                    "_profile",
                    latency_profile(self.trace, self.nranks, self.total_time),
                )
            return self._profile
        return latency_profile(
            self.trace, self.nranks, self.total_time, occupancies
        )

    # ------------------------------------------------------------------

    @classmethod
    def from_outcome(cls, outcome: SimOutcome) -> "RunResult":
        """Derive the refined result from a raw simulation outcome.

        The baseline is the paper's extrapolation: the node count times
        the per-node compute time (what a single process traversing the
        same tree would take).
        """
        cfg = outcome.config
        workers = outcome.workers
        # Per-rank builtin sums in log order, then their builtin sum in
        # rank order: that order fixes the floats.
        durations = []
        search_times = []
        for w in workers:
            d = [e - s for s, e in zip(w.idle_starts, w.idle_ends)]
            durations.extend(d)
            search_times.append(sum(d))
        trace = None
        if cfg.trace:
            offsets = ClockSkewModel(
                cfg.nranks, std=cfg.clock_skew_std, seed=cfg.seed
            ).offsets
            trace = ActivityTrace.from_idle_log(
                [w.idle_starts for w in workers],
                [w.idle_ends for w in workers],
                offsets,
            )
        events = None
        if outcome.event_streams is not None:
            # Deferred import: repro.trace.events is also imported by
            # the sim layer; resolving it lazily keeps RunResult free
            # of import-order coupling.  Event timestamps are true
            # simulation time (no skew to correct).
            from repro.trace.events import EventTrace

            events = EventTrace.from_streams(outcome.event_streams)
        # Config resolution is guaranteed by WorkStealingConfig's
        # __post_init__; the .name accesses below raise cleanly if not.
        return cls(
            label=cfg.label(),
            tree_name=cfg.tree.name,
            nranks=cfg.nranks,
            allocation=cfg.allocation.name,
            selector=cfg.selector.name,
            steal_policy=cfg.steal_policy.name,
            compute_rounds=cfg.compute_rounds,
            total_nodes=outcome.total_nodes,
            total_time=outcome.total_time,
            baseline_time=outcome.total_nodes * cfg.per_node_time,
            steal_requests=sum(w.steal_requests_sent for w in workers),
            failed_steals=sum(w.failed_steals for w in workers),
            successful_steals=sum(w.successful_steals for w in workers),
            nodes_stolen=sum(w.nodes_received for w in workers),
            chunks_stolen=sum(w.chunks_received for w in workers),
            search_time_total=sum(search_times),
            sessions=summarize_sessions(
                durations,
                [a for w in workers for a in w.idle_attempts],
                cfg.nranks,
            ),
            per_rank_nodes=np.array([w.nodes_processed for w in workers]),
            per_rank_search_time=np.array(search_times),
            events_processed=outcome.events_processed,
            messages_dropped=outcome.messages_dropped,
            probes_started=outcome.probes_started,
            requests_forwarded=sum(w.requests_forwarded for w in workers),
            trace=trace,
            events=events,
        )

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"{self.label}: T={self.total_time * 1e3:.2f}ms "
            f"speedup={self.speedup:.1f} eff={self.efficiency:.2f} "
            f"failed={self.failed_steals} "
            f"search={self.mean_search_time * 1e3:.2f}ms"
        )

    # ------------------------------------------------------------------
    # Serialization (the repro.exec contract): run_uts, run_many and
    # the on-disk result cache all speak this one format.
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data form of the result; see :meth:`from_dict`.

        Exact round-trip: ints stay ints, floats survive via JSON's
        shortest-repr encoding, the activity trace (when present) is
        stored transition-by-transition.  The lazily-computed latency
        profile is derived data and deliberately not serialized.
        """
        trace = None
        if self.trace is not None:
            trace = [
                [times.tolist(), states.tolist()]
                for times, states in self.trace.transitions
            ]
        return {
            "label": self.label,
            "tree_name": self.tree_name,
            "nranks": self.nranks,
            "allocation": self.allocation,
            "selector": self.selector,
            "steal_policy": self.steal_policy,
            "compute_rounds": self.compute_rounds,
            "total_nodes": self.total_nodes,
            "total_time": self.total_time,
            "baseline_time": self.baseline_time,
            "steal_requests": self.steal_requests,
            "failed_steals": self.failed_steals,
            "successful_steals": self.successful_steals,
            "nodes_stolen": self.nodes_stolen,
            "chunks_stolen": self.chunks_stolen,
            "search_time_total": self.search_time_total,
            "sessions": {
                name: getattr(self.sessions, name) for name in _SESSION_FIELDS
            },
            "per_rank_nodes": self.per_rank_nodes.tolist(),
            "per_rank_search_time": self.per_rank_search_time.tolist(),
            "events_processed": self.events_processed,
            "messages_dropped": self.messages_dropped,
            "probes_started": self.probes_started,
            "requests_forwarded": self.requests_forwarded,
            "trace": trace,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output."""
        if not isinstance(data, dict):
            raise ReproError(
                f"result data must be a dict, got {type(data).__name__}"
            )
        kwargs = dict(data)
        try:
            sessions = SessionStats(**kwargs.pop("sessions"))
            trace_data = kwargs.pop("trace")
            kwargs["per_rank_nodes"] = np.asarray(
                kwargs["per_rank_nodes"], dtype=np.int64
            )
            kwargs["per_rank_search_time"] = np.asarray(
                kwargs["per_rank_search_time"], dtype=np.float64
            )
        except (KeyError, TypeError) as exc:
            raise ReproError(f"malformed result data: {exc}") from None
        trace = None
        if trace_data is not None:
            trace = ActivityTrace(
                [
                    (
                        np.asarray(times, dtype=np.float64),
                        np.asarray(states, dtype=bool),
                    )
                    for times, states in trace_data
                ]
            )
        try:
            return cls(sessions=sessions, trace=trace, **kwargs)
        except TypeError as exc:
            raise ReproError(f"malformed result data: {exc}") from None

    def to_json(self) -> str:
        """Compact JSON encoding of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, payload: str) -> "RunResult":
        """Inverse of :meth:`to_json`."""
        try:
            data = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ReproError(f"malformed result JSON: {exc}") from None
        return cls.from_dict(data)
