"""Reference oracle: the whole job on one plain event queue.

:class:`OracleCluster` is what the engine (:mod:`repro.sim.cluster`) is
compared against, bit for bit.  Its only job is to be obviously right,
so it is written the slow, direct way: every event goes through
``EventQueue.push`` / ``EventQueue.pop``, one at a time, with no
inlined loop, no handler table and no bound-method caches; a
sender's latencies are its row of the placement's float metric, read
once (not the engine's code table), and its workers expand RNG states
by hash through :class:`TreeGenerator`'s scalar reference, one node at
a time (not the engine's per-run :class:`~repro.uts.tree.TreeTable`,
which the array path builds).  It shares the workers and the
termination detector with the engine — those have their own unit and
property suites — and nothing of the engine's event handling; its NIC
ports are :meth:`NicContention.inject`, the reference for the port
arithmetic the engine writes out.
"""

from __future__ import annotations

import heapq
from typing import Any

import numpy as np

from repro.core.config import WorkStealingConfig
from repro.errors import SimulationError, TerminationError
from repro.net.allocation import build_placement
from repro.net.contention import NicContention
from repro.protocol.core import WorkerStatus
from repro.protocol.factory import build_plan, make_workers
from repro.protocol.messages import (
    TAG_EXEC,
    TAG_FINISH,
    TAG_STEAL_RESPONSE,
    TAG_TOKEN,
)
from repro.sim.cluster import DEFAULT_MAX_EVENTS, Cluster, SimOutcome
from repro.sim.termination import DijkstraTermination, TokenAction
from repro.trace.events import EV_TOKEN
from repro.uts.tree import TreeGenerator
from repro.ws.results import RunResult

__all__ = ["EventQueue", "OracleCluster", "assert_identical", "oracle_result"]


class EventQueue:
    """Priority queue of timestamped simulation events.

    Entries are ``(time, pusher, seq, tag, rank, body)`` tuples;
    ``(pusher, seq)`` makes the ordering total, deterministic, and
    FIFO among a single pusher's equal-timestamp events (the key order
    is documented in :mod:`repro.sim.cluster`).
    """

    __slots__ = ("_heap", "_rank_seq", "_processed", "_max_events", "now")

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS):
        if max_events < 1:
            raise SimulationError(f"max_events must be >= 1, got {max_events}")
        self._heap: list[tuple[float, int, int, int, int, Any]] = []
        #: Per-pusher monotonic counters.
        self._rank_seq: dict[int, int] = {}
        self._processed = 0
        self._max_events = max_events
        self.now = 0.0

    def push(
        self,
        time: float,
        tag: int,
        rank: int,
        body: Any = None,
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
        heapq.heappush(self._heap, (time, pusher, seq, tag, rank, body))

    def pop(self) -> tuple[float, int, int, int, Any]:
        """Remove and return the next ``(time, pusher, tag, rank, body)``.

        Advances :attr:`now`; enforces the event budget.
        """
        if not self._heap:
            raise SimulationError("pop from empty event queue")
        time, pusher, _seq, tag, rank, body = heapq.heappop(self._heap)
        self.now = time
        self._processed += 1
        if self._processed > self._max_events:
            raise SimulationError(
                f"simulation exceeded {self._max_events} events "
                "(livelock or runaway configuration?)"
            )
        return time, pusher, tag, rank, body

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


class OracleCluster:
    """A simulated job on a single event queue; also its own transport."""

    def __init__(self, config: WorkStealingConfig, max_events: int | None = None):
        self.config = config
        self.placement = build_placement(
            config.nranks,
            config.allocation,
            latency_model=config.latency_model,
            topology_factory=config.topology_factory,
        )
        self.queue = (
            EventQueue(max_events) if max_events is not None else EventQueue()
        )
        self.termination = DijkstraTermination(config.nranks, self._quiescent)
        self.nic = NicContention(
            self.placement.rank_nodes, service_time=config.nic_service_time
        )
        self.event_streams = (
            [[] for _ in range(config.nranks)] if config.event_trace else None
        )
        generator = TreeGenerator(config.tree, config.rng_backend)
        plan = build_plan(config, self.placement)
        self.workers = make_workers(
            config, self.placement, plan, generator, self, self.event_streams
        )
        self._finishing = False
        self._messages_dropped = 0
        self._latency_rows: dict[int, list[float]] = {}

    # ------------------------------------------------------------------
    # Transport interface (used by workers)
    # ------------------------------------------------------------------

    def send(
        self, src: int, dst: int, tag: int, body: object, when: float
    ) -> None:
        """Ship ``(tag, body)`` from ``src`` to ``dst``, entering the NIC
        at ``when``; delivery adds wire latency and, for a response
        carrying work, its nodes' transfer time."""
        if self._finishing:
            # The run is over; in-flight control traffic is dropped,
            # like an MPI job tearing down.
            self._messages_dropped += 1
            return
        wire = self._latency_row(src)[dst]
        if tag == TAG_STEAL_RESPONSE and body is not None:
            wire += len(body) * self.config.transfer_time_per_node
        depart = self.nic.inject(src, when)
        arrival = self.nic.inject(dst, depart + wire)
        self.queue.push(arrival, tag, dst, body, pusher=src)

    def _latency_row(self, src: int) -> list[float]:
        """``src``'s one-way latencies, decoded on its first send."""
        row = self._latency_rows.get(src)
        if row is None:
            row = self._latency_rows[src] = self.placement.latency.row(src).tolist()
        return row

    def schedule_exec(self, rank: int, when: float) -> None:
        self.queue.push(when, TAG_EXEC, rank)

    def rank_became_idle(self, rank: int, when: float) -> None:
        self._dispatch_token_action(
            rank, self.termination.rank_idle(rank), when
        )

    def work_sent(self, rank: int) -> None:
        self.termination.work_sent(rank)

    def _quiescent(self) -> bool:
        """No rank running and no grant on the wire (the detector's
        check before rank 0 declares)."""
        return all(
            w.status is not WorkerStatus.RUNNING for w in self.workers
        ) and not any(
            e[3] == TAG_STEAL_RESPONSE and e[5] for e in self.queue._heap
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> SimOutcome:
        for worker in self.workers:
            worker.start(0.0)

        queue = self.queue
        while not queue.empty:
            time, src, tag, rank, body = queue.pop()
            worker = self.workers[rank]
            if tag == TAG_EXEC:
                worker.on_exec(time)
            elif tag == TAG_TOKEN:
                if self.event_streams is not None:
                    self.event_streams[rank].append((time, EV_TOKEN, body, 0))
                action = self.termination.token_arrived(
                    rank, body, worker.status is WorkerStatus.WAITING
                )
                self._dispatch_token_action(rank, action, time)
            else:
                worker.on_message(time, tag, src, body)

        if not self.termination.terminated:
            raise TerminationError(
                "event queue drained before termination was detected"
            )
        for worker in self.workers:
            if worker.status is not WorkerStatus.DONE:
                raise TerminationError(
                    f"rank {worker.rank} never received Finish"
                )
            if not worker.stack.is_empty:
                raise TerminationError(
                    f"rank {worker.rank} terminated holding "
                    f"{worker.stack.size} nodes"
                )
        sent = sum(w.nodes_sent for w in self.workers)
        received = sum(w.nodes_received for w in self.workers)
        if sent != received:
            raise TerminationError(
                f"work lost in flight: {sent} nodes sent but "
                f"{received} received"
            )
        return SimOutcome(
            config=self.config,
            placement=self.placement,
            workers=self.workers,
            total_time=max(w.finish_time for w in self.workers),
            events_processed=queue.processed,
            messages_dropped=self._messages_dropped,
            probes_started=self.termination.probes_started,
            event_streams=self.event_streams,
        )

    # ------------------------------------------------------------------
    # Termination plumbing
    # ------------------------------------------------------------------

    def _dispatch_token_action(
        self, src: int, action: TokenAction, when: float
    ) -> None:
        if action.terminated:
            self._broadcast_finish(when)
        elif action.sends:
            self.send(src, action.send_to, TAG_TOKEN, action.send_color, when)

    def _broadcast_finish(self, when: float) -> None:
        """Rank 0 proved termination: tell everyone, drop the rest."""
        self._messages_dropped += self.queue.clear()
        self._finishing = True
        self.workers[0].on_message(when, TAG_FINISH, 0, None)
        latency = self._latency_row(0)
        for rank in range(1, self.config.nranks):
            self.queue.push(when + latency[rank], TAG_FINISH, rank, pusher=0)


def oracle_result(config: WorkStealingConfig) -> RunResult:
    """The oracle's refined result for ``config``."""
    return RunResult.from_outcome(OracleCluster(config).run())


def assert_identical(
    cfg: WorkStealingConfig, res: RunResult | None = None
) -> RunResult:
    """Compare every observable of the oracle's run of ``cfg`` with
    ``res`` (default: the engine's run of it), bit for bit, and return
    the oracle's result.

    A rank with an event recorder takes the worker's own methods for
    every event, so the engine also runs ``cfg`` untraced — the path
    on which its loop handles quanta and failed steals itself — and
    that run's ``to_dict()`` must match the oracle's too."""
    seq = oracle_result(cfg)
    if res is None:
        res = RunResult.from_outcome(Cluster(cfg).run())
    expected = seq.to_dict()
    assert expected == res.to_dict()
    if cfg.event_trace:
        untraced = Cluster(cfg.replace(event_trace=False)).run()
        assert expected == RunResult.from_outcome(untraced).to_dict()
    if seq.events is not None:
        assert seq.events.canonical_bytes() == res.events.canonical_bytes()
    if seq.trace is not None:
        assert res.trace is not None
        for (ta, sa), (tb, sb) in zip(
            seq.trace.transitions, res.trace.transitions
        ):
            assert np.array_equal(ta, tb)
            assert np.array_equal(sa, sb)
    return seq
