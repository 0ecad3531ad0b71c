"""Typed steal-event streams of the simulated scheduler.

The activity trace (:mod:`repro.core.tracing`) answers *when* a rank
had work; this module answers *why*.  Every edge of the steal protocol
— victim draws, requests, replies, denials, lifeline traffic, the
termination wave — is logged as one fixed-shape tuple, cheap enough to
leave compiled into the workers (recording is an attribute load and a
list append per protocol edge, and protocol edges are orders of
magnitude rarer than node expansions).

Each rank's live stream is a plain ``list`` of ``(time, etype, a, b)``
tuples that its worker appends to; ``a``/``b`` are small integers
whose meaning depends on ``etype`` (see :data:`EVENT_SCHEMA`).  Every
event is kept: a run's size is bounded by its ``max_events`` budget,
not by the stream.  :class:`EventTrace` is the validated post-mortem
view the analysis and exporters operate on.

Timestamps are *true* simulation time (not the skewed per-rank clocks
the activity trace uses): event streams exist to diagnose the
scheduler, and matching requests to replies across ranks needs one
coherent clock.
"""

from __future__ import annotations

import math

from repro.errors import TraceError

__all__ = [
    "EV_VICTIM_DRAW",
    "EV_STEAL_SENT",
    "EV_STEAL_FAIL",
    "EV_STEAL_OK",
    "EV_SERVE",
    "EV_DENY",
    "EV_LIFELINE_QUIESCE",
    "EV_LIFELINE_WAKE",
    "EV_LIFELINE_PUSH",
    "EV_PUSH_RECV",
    "EV_TOKEN",
    "EV_FINISH",
    "EV_STEAL_FORWARD",
    "EV_FORWARD_SERVE",
    "EVENT_NAMES",
    "EVENT_SCHEMA",
    "EventTrace",
]

# ----------------------------------------------------------------------
# Event types.  One integer per protocol edge; the ``a``/``b`` slots
# are documented in EVENT_SCHEMA and rendered into EXPERIMENTS.md.
# ----------------------------------------------------------------------

#: Thief drew a victim from its selector.  a=victim, b=attempt number
#: within the current work-discovery session (1-based).
EV_VICTIM_DRAW = 0
#: Thief posted a steal request.  a=victim.
EV_STEAL_SENT = 1
#: Thief received an empty reply (failed steal).  a=victim.
EV_STEAL_FAIL = 2
#: Thief received work.  a=victim, b=nodes received.
EV_STEAL_OK = 3
#: Victim packaged and sent work.  a=thief, b=nodes sent.
EV_SERVE = 4
#: Victim denied a request (no stealable work, or idle).  a=thief.
EV_DENY = 5
#: Rank quiesced onto its lifelines (lifeline extension).
EV_LIFELINE_QUIESCE = 6
#: Quiescent rank woken by a work push.  a=victim that woke it.
EV_LIFELINE_WAKE = 7
#: Rank pushed work to an armed lifeline.  a=thief, b=nodes pushed.
EV_LIFELINE_PUSH = 8
#: Work push merged while already RUNNING (push/steal race).
#: a=victim, b=nodes merged.
EV_PUSH_RECV = 9
#: Termination token arrived at this rank.  a=color (0 white, 1 black).
EV_TOKEN = 10
#: Finish broadcast delivered to this rank.
EV_FINISH = 11
#: Rank relayed a steal request instead of denying it (forwarding
#: extension).  a=rank forwarded to, b=originating thief.
EV_STEAL_FORWARD = 12
#: Rank served a *forwarded* request; work flows straight to the
#: originator.  a=originating thief, b=nodes sent.
EV_FORWARD_SERVE = 13

EVENT_NAMES = {
    EV_VICTIM_DRAW: "victim_draw",
    EV_STEAL_SENT: "steal_sent",
    EV_STEAL_FAIL: "steal_fail",
    EV_STEAL_OK: "steal_ok",
    EV_SERVE: "serve",
    EV_DENY: "deny",
    EV_LIFELINE_QUIESCE: "lifeline_quiesce",
    EV_LIFELINE_WAKE: "lifeline_wake",
    EV_LIFELINE_PUSH: "lifeline_push",
    EV_PUSH_RECV: "push_recv",
    EV_TOKEN: "token",
    EV_FINISH: "finish",
    EV_STEAL_FORWARD: "steal_forward",
    EV_FORWARD_SERVE: "forward_serve",
}

#: ``etype -> (meaning of a, meaning of b)`` — the documented schema.
EVENT_SCHEMA = {
    EV_VICTIM_DRAW: ("victim rank", "session attempt number"),
    EV_STEAL_SENT: ("victim rank", "-"),
    EV_STEAL_FAIL: ("victim rank", "-"),
    EV_STEAL_OK: ("victim rank", "nodes received"),
    EV_SERVE: ("thief rank", "nodes sent"),
    EV_DENY: ("thief rank", "-"),
    EV_LIFELINE_QUIESCE: ("-", "-"),
    EV_LIFELINE_WAKE: ("waking victim rank", "-"),
    EV_LIFELINE_PUSH: ("thief rank", "nodes pushed"),
    EV_PUSH_RECV: ("victim rank", "nodes merged"),
    EV_TOKEN: ("token color (0 white, 1 black)", "-"),
    EV_FINISH: ("-", "-"),
    EV_STEAL_FORWARD: ("rank forwarded to", "originating thief rank"),
    EV_FORWARD_SERVE: ("originating thief rank", "nodes sent"),
}


class EventTrace:
    """Validated per-rank event streams of a whole run.

    Validation mirrors the activity-trace contract (and the same
    :class:`~repro.errors.TraceError` discipline): per-rank timestamps
    must be finite and non-decreasing — the event queue delivers in
    time order, so a violation means a stream was fed garbage — and
    every event type must be known.
    """

    __slots__ = ("ranks", "nranks")

    def __init__(self, ranks: list[list[tuple[float, int, int, int]]]):
        if not ranks:
            raise TraceError("event trace must cover at least one rank")
        self.ranks: list[list[tuple[float, int, int, int]]] = []
        for rank, events in enumerate(ranks):
            prev = -math.inf
            for i, ev in enumerate(events):
                if len(ev) != 4:
                    raise TraceError(
                        f"rank {rank} event {i}: expected a 4-tuple, got {ev!r}"
                    )
                time, etype, _a, _b = ev
                if not math.isfinite(time):
                    raise TraceError(
                        f"rank {rank} event {i}: non-finite timestamp {time!r}"
                    )
                if time < prev:
                    raise TraceError(
                        f"rank {rank} event {i}: timestamp {time} out of "
                        f"order (previous {prev})"
                    )
                prev = time
                if etype not in EVENT_NAMES:
                    raise TraceError(
                        f"rank {rank} event {i}: unknown event type {etype!r}"
                    )
            self.ranks.append(list(events))
        self.nranks = len(self.ranks)

    @classmethod
    def from_streams(
        cls, streams: list[list[tuple[float, int, int, int]]]
    ) -> "EventTrace":
        """Assemble and validate a trace from live per-rank streams.

        Workers log in *causal* order, which can locally interleave
        timestamps: a victim that advanced its clock packaging work may
        afterwards handle a message that arrived mid-quantum (the DES
        answers arrivals at their arrival time).  Each rank's stream is
        therefore stable-sorted into chronological order here — a
        deterministic normalisation, so identical runs still produce
        byte-identical traces.
        """
        return cls([sorted(s, key=lambda ev: ev[0]) for s in streams])

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(r) for r in self.ranks)

    def count(self, etype: int, rank: int | None = None) -> int:
        """Number of events of ``etype`` (for one rank or the run)."""
        ranks = self.ranks if rank is None else [self.ranks[rank]]
        return sum(1 for evs in ranks for ev in evs if ev[1] == etype)

    def merged(self) -> list[tuple[float, int, int, int, int]]:
        """All events as ``(time, rank, etype, a, b)``, time-sorted.

        The sort is stable with rank as tie-breaker, so the merged
        stream is deterministic for deterministic runs.
        """
        out = [
            (t, rank, etype, a, b)
            for rank, evs in enumerate(self.ranks)
            for (t, etype, a, b) in evs
        ]
        out.sort(key=lambda ev: (ev[0], ev[1]))
        return out

    def canonical_bytes(self) -> bytes:
        """Deterministic byte encoding of the whole stream.

        ``repr`` of floats is exact (shortest round-trip), so two runs
        produce identical bytes iff every event matches bit-for-bit —
        the golden-determinism contract of the test suite.  Times are
        encoded as Python floats: a NumPy scalar's ``repr`` depends on
        its type and the NumPy major version, not only on its value.
        """
        lines = []
        for rank, evs in enumerate(self.ranks):
            for t, etype, a, b in evs:
                lines.append(f"{rank}:{float(t)!r}:{etype}:{a}:{b}")
        return "\n".join(lines).encode("ascii")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventTrace(nranks={self.nranks}, events={len(self)})"
