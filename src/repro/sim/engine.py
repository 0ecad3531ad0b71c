"""Event queue and loop primitives of the cluster simulator.

Two event kinds exist:

* ``EVT_EXEC`` — a rank reached a poll boundary (end of a work
  quantum) and runs its scheduler step;
* ``EVT_MSG`` — a message arrives at a rank.

Ordering: events are keyed by ``(time, pusher, seq)`` where ``pusher``
is the rank that scheduled the event and ``seq`` a per-pusher counter.
Among equal timestamps this delivers in pusher order, then in each
pusher's insertion order — a total order that is computable *locally*
by whichever shard hosts the pusher, which is what lets the engine
(:mod:`repro.sim.shard`) merge cross-shard event streams into exactly
the global order a single queue produces.  :class:`EventQueue` is that
single queue, kept plain: the tests' reference oracle runs on it, the
engine's shards keep their own split heaps.  A rank only
ever pushes while one of its own events is being processed, so in any
engine the per-pusher counters evolve identically and the key space is
globally unique.
"""

from __future__ import annotations

import heapq
from typing import Any

from repro.errors import SimulationError

__all__ = ["EVT_EXEC", "EVT_MSG", "EventQueue"]

EVT_EXEC = 0
EVT_MSG = 1

#: Default runaway guard for one simulation.
DEFAULT_MAX_EVENTS = 100_000_000


class EventQueue:
    """Priority queue of timestamped simulation events.

    Entries are ``(time, pusher, seq, kind, rank, payload)`` tuples;
    ``(pusher, seq)`` makes the ordering total, deterministic, and
    FIFO among a single pusher's equal-timestamp events.
    """

    __slots__ = ("_heap", "_rank_seq", "_processed", "_max_events", "now")

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS):
        if max_events < 1:
            raise SimulationError(f"max_events must be >= 1, got {max_events}")
        self._heap: list[tuple[float, int, int, int, int, Any]] = []
        #: Per-pusher monotonic counters (the shard-local key source).
        self._rank_seq: dict[int, int] = {}
        self._processed = 0
        self._max_events = max_events
        self.now = 0.0

    def push(
        self,
        time: float,
        kind: int,
        rank: int,
        payload: Any = None,
        pusher: int | None = None,
    ) -> None:
        """Schedule an event; scheduling into the past is an error.

        ``pusher`` defaults to the destination rank (self-scheduled
        EXEC events); message sends pass the sending rank.
        """
        if time < self.now:
            raise SimulationError(
                f"event scheduled at {time} before current time {self.now}"
            )
        if pusher is None:
            pusher = rank
        rs = self._rank_seq
        seq = rs.get(pusher, 0)
        rs[pusher] = seq + 1
        heapq.heappush(self._heap, (time, pusher, seq, kind, rank, payload))

    def push_entry(self, entry: tuple[float, int, int, int, int, Any]) -> None:
        """Insert a pre-keyed entry (cross-shard staging path).

        The entry's ``(pusher, seq)`` was assigned by the pusher's home
        queue, so no counter is consumed here; time validation still
        applies.
        """
        if entry[0] < self.now:
            raise SimulationError(
                f"event scheduled at {entry[0]} before current time {self.now}"
            )
        heapq.heappush(self._heap, entry)

    def pop(self) -> tuple[float, int, int, Any]:
        """Remove and return the next ``(time, kind, rank, payload)``.

        Advances :attr:`now`; enforces the event budget.
        """
        if not self._heap:
            raise SimulationError("pop from empty event queue")
        time, _pusher, _seq, kind, rank, payload = heapq.heappop(self._heap)
        self.now = time
        self._processed += 1
        if self._processed > self._max_events:
            raise SimulationError(
                f"simulation exceeded {self._max_events} events "
                "(livelock or runaway configuration?)"
            )
        return time, kind, rank, payload

    def head_key(self) -> tuple[float, int, int] | None:
        """``(time, pusher, seq)`` of the next event, or None if empty."""
        if not self._heap:
            return None
        head = self._heap[0]
        return (head[0], head[1], head[2])

    @property
    def empty(self) -> bool:
        return not self._heap

    @property
    def pending(self) -> int:
        return len(self._heap)

    @property
    def processed(self) -> int:
        """Number of events delivered so far."""
        return self._processed

    def clear(self) -> int:
        """Drop all pending events (post-termination); return the count."""
        n = len(self._heap)
        self._heap.clear()
        return n
