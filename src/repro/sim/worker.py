"""Per-rank execution core of the simulated work-stealing scheduler.

Faithful port of the reference ``mpi_workstealing.c`` behaviour the
paper studies (§II-A, Algorithm 1):

* work items are tree nodes managed in fixed-size chunks; the first
  chunk is private, thieves take whole chunks from the bottom;
* between every ``poll_interval`` node expansions the worker polls for
  messages; pending steal requests are answered there — the victim
  "stop[s] working on its queue to package work and send it to the
  stealer" (no work-first principle);
* an empty stack starts a *work-discovery session*: the victim
  selector proposes victims one at a time, one outstanding request per
  thief, until work arrives or the termination ring fires.

The worker owns only *execution*: the stack, quantum expansion
(``on_exec``, one quantum per EXEC event), the activity trace and the
clock plumbing.  Everything about finding and moving work — the idle
transition, victim draws, every protocol message, session accounting —
lives in the composed :class:`repro.protocol.StealProtocol`; the
steal counters tests and results read off the worker are read-only
views onto it.

A worker never touches the event queue or other workers directly; it
talks to the cluster through a small transport interface
(:class:`Transport`), which keeps the state machine unit-testable.
"""

from __future__ import annotations

from typing import Protocol

from repro.core.steal_policy import StealPolicy
from repro.core.tracing import TraceRecorder
from repro.core.victim import VictimSelector
from repro.errors import SimulationError
from repro.protocol.core import ProtocolPlan, StealProtocol
from repro.protocol.status import WorkerStatus
from repro.trace.events import EventRecorder
from repro.uts.stack import ChunkedStack
from repro.uts.tree import TreeGenerator

__all__ = ["WorkerStatus", "Transport", "Worker"]

#: Plan used when a worker is constructed without one (unit tests,
#: single-purpose harnesses): baseline request/response stealing.
_DEFAULT_PLAN = ProtocolPlan()


class Transport(Protocol):
    """What a worker needs from the cluster."""

    def send(
        self, src: int, dst: int, tag: int, body: object, when: float
    ) -> None:
        """Deliver ``(tag, body)`` from ``src`` to ``dst``, sent at ``when``."""

    def schedule_exec(self, rank: int, when: float) -> None:
        """Schedule the next poll boundary of ``rank`` at ``when``."""

    def rank_became_idle(self, rank: int, when: float) -> None:
        """Termination hook: ``rank`` ran out of work at ``when``."""

    def work_sent(self, rank: int) -> None:
        """Termination hook: ``rank`` sent a work message."""

    def local_time(self, rank: int, true_time: float) -> float:
        """Skewed clock reading used for trace timestamps."""


class Worker:
    """One simulated MPI rank (execution core + composed protocol)."""

    __slots__ = (
        "rank",
        "nranks",
        "generator",
        "selector",
        "policy",
        "transport",
        "poll_interval",
        "per_node_time",
        "steal_service_time",
        "stack",
        "status",
        "trace",
        "events",
        "nodes_processed",
        "finish_time",
        "protocol",
        "pending",
        "_notify_nodes",
        "_children_list",
        "_fused_expand",
        "_schedule_exec",
        "_plain_serve",
        "_serve",
    )

    def __init__(
        self,
        rank: int,
        nranks: int,
        generator: TreeGenerator,
        selector: VictimSelector | None,
        policy: StealPolicy,
        transport: Transport,
        chunk_size: int,
        poll_interval: int,
        per_node_time: float,
        steal_service_time: float,
        trace: TraceRecorder | None = None,
        events: EventRecorder | None = None,
        plan: ProtocolPlan | None = None,
    ):
        if nranks > 1 and selector is None:
            raise SimulationError("multi-rank worker needs a victim selector")
        self.rank = rank
        self.nranks = nranks
        self.generator = generator
        self.selector = selector
        self.policy = policy
        self.transport = transport
        self.poll_interval = poll_interval
        self.per_node_time = per_node_time
        self.steal_service_time = steal_service_time

        self.stack = ChunkedStack(chunk_size)
        self.status = WorkerStatus.RUNNING  # resolved properly in start()
        self.trace = trace
        # Structured steal-event sink (repro.trace); None when event
        # tracing is off, so every hook is one load + one None test on
        # steal edges only — the EXEC expansion path never sees it.
        self.events = events

        self.nodes_processed = 0
        self.finish_time: float | None = None

        # The steal lifecycle lives in the protocol layer; the worker
        # aliases the pieces ``on_exec`` reads at every poll boundary.
        self.protocol = protocol = StealProtocol(
            self, plan if plan is not None else _DEFAULT_PLAN
        )
        #: Queued steal requests (the protocol's own list object; it is
        #: mutated in place, never rebound, so the alias stays live).
        self.pending = protocol.pending
        # Plain-serving protocols do nothing at a poll boundary with an
        # empty queue; ``on_exec`` skips the call only then.
        self._plain_serve = protocol.plain_serve
        self._serve = protocol.serve_pending

        # Optional transport hook: the cluster keeps a running node
        # total for O(1) budget checks; bare test transports omit it.
        self._notify_nodes = getattr(transport, "nodes_executed", None)
        # Bound-method caches for the per-quantum call chain.  The
        # stack and generator are fixed for the worker's lifetime;
        # ``send`` is deliberately NOT cached (tests patch it).
        self._children_list = generator.children_list
        self._fused_expand = self.stack.expand_quantum
        self._schedule_exec = transport.schedule_exec

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, now: float) -> None:
        """Initialise at simulation start: rank 0 holds the root."""
        if self.rank == 0:
            state, depth = self.generator.root()
            self.stack.push_batch_list([state], [depth])
            self._record(now, active=True)
            self.status = WorkerStatus.RUNNING
            self.transport.schedule_exec(self.rank, now)
        else:
            self._go_idle(now)

    # ------------------------------------------------------------------
    # Event handlers (called by the cluster)
    # ------------------------------------------------------------------

    def on_exec(self, now: float) -> None:
        """Poll boundary: answer queued steals, then work or search."""
        if self.status is not WorkerStatus.RUNNING:
            raise SimulationError(
                f"rank {self.rank}: EXEC while {self.status.name}"
            )
        if self._plain_serve and not self.pending:
            t = now
        else:
            t = self._serve(now)
        if self.stack._chunks:
            n = self._fused_expand(self.poll_interval, self._children_list)
            self.nodes_processed += n
            notify = self._notify_nodes
            if notify is not None:
                notify(n)
            self._schedule_exec(self.rank, t + n * self.per_node_time)
        else:
            self._go_idle(t)

    def on_message(self, now: float, tag: int, src: int, body: object) -> None:
        """``(tag, body)`` from ``src`` arrived at (true) time ``now``."""
        self.protocol.on_message(now, tag, src, body)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _go_idle(self, t: float) -> None:
        """Stack exhausted: record the transition and start searching."""
        # Ranks that never had work have no active->inactive edge; their
        # trace stays empty until they first receive work.
        if self._was_active():
            self._record(t, active=False)
        self.protocol.on_idle(t)

    def _was_active(self) -> bool:
        return self.trace is None or (
            len(self.trace.states) > 0 and self.trace.states[-1]
        )

    def _record(self, true_time: float, active: bool) -> None:
        if self.trace is not None:
            self.trace.record(
                self.transport.local_time(self.rank, true_time), active
            )

    # ------------------------------------------------------------------
    # Protocol views (read-only; the protocol owns the state)
    # ------------------------------------------------------------------

    @property
    def sessions(self):
        return self.protocol.sessions

    @property
    def search_time(self) -> float:
        """Total time this rank spent in work-discovery sessions."""
        return self.protocol.search_time

    @property
    def steal_requests_sent(self) -> int:
        return self.protocol.steal_requests_sent

    @property
    def consecutive_failed_steals(self) -> int:
        return self.protocol.consecutive_failed_steals

    @property
    def failed_steals(self) -> int:
        return self.protocol.failed_steals

    @property
    def successful_steals(self) -> int:
        return self.protocol.successful_steals

    @property
    def requests_served(self) -> int:
        return self.protocol.requests_served

    @property
    def requests_denied(self) -> int:
        return self.protocol.requests_denied

    @property
    def requests_forwarded(self) -> int:
        return self.protocol.requests_forwarded

    @property
    def forwards_served(self) -> int:
        return self.protocol.forwards_served

    @property
    def chunks_sent(self) -> int:
        return self.protocol.chunks_sent

    @property
    def nodes_sent(self) -> int:
        return self.protocol.nodes_sent

    @property
    def chunks_received(self) -> int:
        return self.protocol.chunks_received

    @property
    def nodes_received(self) -> int:
        return self.protocol.nodes_received

    @property
    def service_time(self) -> float:
        return self.protocol.service_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Worker(rank={self.rank}, status={self.status.name}, "
            f"stack={self.stack.size}, processed={self.nodes_processed})"
        )
