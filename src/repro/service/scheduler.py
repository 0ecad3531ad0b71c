"""Equal-share job scheduling.

The service's queue discipline, deterministic and independently
testable:

1. **Equal share across clients** — clients share dispatch slots by
   *stride scheduling*: every dispatched job advances its client's
   virtual time by one, and the client with the smallest virtual time
   goes next, so two busy clients alternate regardless of how many
   jobs either has queued.
2. **FIFO per client** — one client's jobs run in submission order.

Ties (equal virtual time) break on the client name, so dispatch order
is a pure function of the submission sequence — the fairness tests
assert exact orders.

A client returning after idling does not get to "bank" the time it
did not use: its virtual time is advanced to the minimum virtual time
of the currently-queued clients when it rejoins (the standard fix for
stride-scheduling starvation).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.jobs import Job

__all__ = ["FairShareScheduler", "ClientShare"]


@dataclass
class ClientShare:
    """Fair-share accounting for one client."""

    name: str
    #: Stride-scheduling virtual time: advances by one per dispatched
    #: job; the smallest virtual time dispatches next.
    vtime: float = 0.0
    #: Queued jobs, FIFO.
    queue: deque[Job] = field(default_factory=deque)


class FairShareScheduler:
    """Deterministic equal-share queue of jobs."""

    def __init__(self) -> None:
        self._clients: dict[str, ClientShare] = {}

    def push(self, job: Job) -> None:
        """Enqueue ``job`` under its client."""
        self._share(job.client).queue.append(job)

    def pop(self) -> Job | None:
        """Dispatch the next job (or ``None`` when idle).

        The queued client with the smallest ``(vtime, name)`` wins and
        pays one unit of virtual time.
        """
        backlog = [s for s in self._clients.values() if s.queue]
        if not backlog:
            return None
        share = min(backlog, key=lambda s: (s.vtime, s.name))
        share.vtime += 1.0
        return share.queue.popleft()

    def __len__(self) -> int:
        return sum(len(s.queue) for s in self._clients.values())

    def __bool__(self) -> bool:
        return any(s.queue for s in self._clients.values())

    def _share(self, client: str) -> ClientShare:
        share = self._clients.get(client)
        if share is None:
            # A (re)joining client starts at the queued minimum: it
            # cannot retroactively claim the share it did not use.
            floor = min(
                (s.vtime for s in self._clients.values() if s.queue),
                default=0.0,
            )
            share = ClientShare(name=client, vtime=floor)
            self._clients[client] = share
        elif not share.queue:
            floor = min(
                (s.vtime for s in self._clients.values() if s.queue),
                default=share.vtime,
            )
            share.vtime = max(share.vtime, floor)
        return share
