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
from unittest import mock

import numpy as np

from repro.core.config import WorkStealingConfig
from repro.errors import SimulationError, TerminationError
from repro.net.allocation import build_placement
from repro.net.contention import NicContention
from repro.protocol.core import WorkerStatus
from repro.protocol.factory import build_plan, make_workers
import repro.protocol.messages as messages
import repro.sim.cluster as cluster_mod
from repro.protocol.messages import (
    TAG_EXEC,
    TAG_FINISH,
    TAG_STEAL_RESPONSE,
    TAG_TOKEN,
    StealForward,
)
from repro.sim.cluster import DEFAULT_MAX_EVENTS, Cluster, SimOutcome
from repro.sim.termination import DijkstraTermination, TokenAction
from repro.trace.events import EV_TOKEN, EVENT_NAMES
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

    __slots__ = ("_heap", "_rank_seq", "_processed", "_max_events", "now", "log")

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS):
        if max_events < 1:
            raise SimulationError(f"max_events must be >= 1, got {max_events}")
        self._heap: list[tuple[float, int, int, int, int, Any]] = []
        #: Every popped entry, in order, when a list (``_divergence``).
        self.log: list | None = None
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
        entry = heapq.heappop(self._heap)
        if self.log is not None:
            self.log.append(entry)
        time, pusher, _seq, tag, rank, body = entry
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
    that run's ``to_dict()`` must match the oracle's too.  A mismatch
    raises with :func:`_divergence`'s report."""
    seq = oracle_result(cfg)
    if res is None:
        res = RunResult.from_outcome(Cluster(cfg).run())
    expected = seq.to_dict()
    _check(cfg, seq, res, expected == res.to_dict())
    if cfg.event_trace:
        untraced = RunResult.from_outcome(
            Cluster(cfg.replace(event_trace=False)).run()
        )
        _check(cfg, seq, untraced, expected == untraced.to_dict())
    if seq.events is not None:
        _check(
            cfg,
            seq,
            res,
            seq.events.canonical_bytes() == res.events.canonical_bytes(),
        )
    if seq.trace is not None:
        _check(
            cfg,
            seq,
            res,
            res.trace is not None
            and all(
                np.array_equal(ta, tb) and np.array_equal(sa, sb)
                for (ta, sa), (tb, sb) in zip(
                    seq.trace.transitions, res.trace.transitions
                )
            ),
        )
    return seq


def _check(
    cfg: WorkStealingConfig, seq: RunResult, res: RunResult, same: bool
) -> None:
    if not same:
        raise AssertionError(_divergence(cfg, seq, res))


def _short(value: Any, limit: int = 160) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _event(ev: tuple[float, int, int, int, int]) -> str:
    time, rank, etype, a, b = ev
    return f"t={time!r} rank={rank} {EVENT_NAMES[etype]} ({a}, {b})"


def _divergence(cfg: WorkStealingConfig, seq: RunResult, res: RunResult) -> str:
    """Where the oracle's result ``seq`` and ``res`` first part.

    Names the first differing ``to_dict()`` key (and, for a list, its
    first differing entry), the first differing event of the merged
    time-sorted streams on each side, the first differing delivered
    message, and the config.  A run without events is rerun on both
    sides with ``event_trace=True``; those reruns take the workers' own
    methods, so they may agree where the engine's untraced loop did
    not, and the report says so.  The messages come from untraced
    reruns, where the loop runs its own steps (:func:`_deliveries`).
    """
    lines = [f"engine != oracle for {cfg.label()}"]
    a, b = seq.to_dict(), res.to_dict()
    key = next((k for k in {**a, **b} if a.get(k) != b.get(k)), None)
    if key is None:
        lines.append("to_dict(): equal")
    else:
        va, vb = a.get(key), b.get(key)
        if isinstance(va, list) and isinstance(vb, list) and len(va) == len(vb):
            i = next(i for i, (x, y) in enumerate(zip(va, vb)) if x != y)
            key, va, vb = f"{key}[{i}]", va[i], vb[i]
        lines.append(
            f"first differing to_dict() key {key!r}: "
            f"oracle {_short(va)}, engine {_short(vb)}"
        )
    ea, eb, note = seq.events, res.events, ""
    if ea is None or eb is None:
        traced = cfg.replace(event_trace=True)
        ea = oracle_result(traced).events
        eb = RunResult.from_outcome(Cluster(traced).run()).events
        note = " (reruns with event_trace=True)"
    ma, mb = ea.merged(), eb.merged()
    lines += _first_difference("event", note, ma, mb, _event)
    lines += _first_difference(
        "delivered message",
        " (untraced reruns, no tail walk)",
        *_deliveries(cfg.replace(event_trace=False)),
        _message,
    )
    lines.append(f"config: {cfg.to_dict()}")
    return "\n".join(lines)


def _first_difference(noun: str, note: str, xs: list, ys: list, show) -> list:
    """The report's lines on where ``xs`` (oracle) and ``ys`` (engine)
    first part, ``show`` naming an entry."""
    i = next(
        (i for i, (x, y) in enumerate(zip(xs, ys)) if x != y),
        min(len(xs), len(ys)),
    )
    if i == len(xs) == len(ys):
        return [f"{noun}s{note}: all {i} equal"]
    ended = "(none: the stream ended)"
    return [
        f"first differing {noun} #{i}{note}:",
        f"  oracle {show(xs[i]) if i < len(xs) else ended}",
        f"  engine {show(ys[i]) if i < len(ys) else ended}",
    ]


class _PopLog:
    """``heapq`` for one engine run: every event the loop's
    ``heappop`` or ``heappushpop`` hands back is logged, in the order
    the loop processes them."""

    heappush = staticmethod(heapq.heappush)
    heapify = staticmethod(heapq.heapify)

    def __init__(self, log: list):
        self.log = log

    def heappop(self, heap: list):
        event = heapq.heappop(heap)
        self.log.append(event)
        return event

    def heappushpop(self, heap: list, item):
        event = heapq.heappushpop(heap, item)
        self.log.append(event)
        return event


def _deliveries(cfg: WorkStealingConfig) -> tuple[list, list]:
    """The messages the oracle's and the engine's runs of ``cfg``
    deliver, in delivery order, as ``(time, pusher, seq, tag, dst,
    body)`` with a grant's body as its length.

    The engine's come from its heap, through ``repro.sim.cluster.heapq``
    patched for this run alone; its quanta are no heap events, so EXEC
    events are left out on both sides.  The run keeps its quiescent
    tail on the heap (a ``_pull_chains`` that declines, which the loop
    reads as "leave the heap be"), so the tail's messages are there to
    compare; a defect in the walk itself shows in ``to_dict()`` only.
    A run that raises logs what it delivered before.
    """
    oracle = OracleCluster(cfg)
    oracle.queue.log = oracle_log = []
    engine = Cluster(cfg)
    engine._pull_chains = lambda: None
    engine_log: list = []
    try:
        oracle.run()
    except (SimulationError, TerminationError):
        pass
    with mock.patch.object(cluster_mod, "heapq", _PopLog(engine_log)):
        try:
            engine.run()
        except (SimulationError, TerminationError):
            pass
    return _messages(oracle_log), _messages(engine_log)


def _messages(log: list) -> list:
    out = []
    for time, pusher, seq, tag, dst, body in log:
        if tag == TAG_EXEC:
            continue
        if isinstance(body, list):
            body = len(body)
        elif isinstance(body, StealForward):
            body = (body.thief, body.escalated, body.ttl, body.visited)
        out.append((time, pusher, seq, tag, dst, body))
    return out


#: Tag names by value, for the report.
_TAGS = {
    getattr(messages, name): name[4:]
    for name in messages.__all__
    if name.startswith("TAG_")
}


def _message(msg: tuple) -> str:
    time, pusher, seq, tag, dst, body = msg
    if tag == TAG_STEAL_RESPONSE and body is not None:
        body = f"{body} nodes"
    return (
        f"t={time!r} {_TAGS[tag]} {pusher} -> {dst} (seq {seq}) "
        f"body {_short(body, 60)}"
    )
