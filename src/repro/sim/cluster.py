"""The simulation engine: one job, one key-ordered event loop.

:class:`Cluster` assembles placement, workers and termination detector
from a config, *is* the transport its workers talk to, and runs the
whole job as a single sequential loop (DESIGN.md §5d).

An event is a ``(time, pusher, seq, tag, dst, body)`` tuple on one heap.
``tag`` is the message tag itself (:mod:`repro.protocol.messages`), or
``TAG_EXEC`` for a rank reaching a poll boundary; ``pusher`` is the
rank that scheduled the event — for a message, its sender, which is
all a request or a response needs to say about who the thief or the
victim is — and ``seq`` that rank's own counter.  The loop pops a
tuple and dispatches on the integer it holds; no message object exists
unless the body needs more than one field (a relayed request).

Events are ordered by ``(time, pusher, seq)``.  Among equal timestamps
this delivers in pusher order, then in each pusher's insertion order.
A rank only pushes while one of its own events is being processed, so
the key is unique, depends on nothing but the simulated history, and
the tuple compare never reaches ``tag``.  That is what makes this heap
and the plain queue of ``tests/sim/oracle.py`` pop the same sequence,
and lets the two be compared byte for byte.

One EXEC event is one quantum: the paper's Algorithm 1 polls between
every ``poll_interval`` node expansions.  A tree is walked once per
process into a :class:`~repro.uts.tree.TreeTable` (held for the next run
by :func:`~repro.uts.tree.tree_table`), so a quantum reads child
index ranges instead of hashing RNG states, and each rank's stack is a
:class:`~repro.uts.stack.RangeStack`: index ranges, not nodes.  Nodes
are numbered breadth-first, so the children of a run of consecutive
nodes are one range, and a quantum whose nodes lie in one range of the
top chunk — at any poll interval — is one subtraction and one pushed
range (DESIGN.md §5d).

**The loop owns the three common events** — a quantum, a request at a
WAITING rank (deny it), a deny at a WAITING thief (count it, draw,
request again) — step for step as ``Worker.on_exec`` and
``Worker.on_message`` do, with no call of its own but one
``heapq.heappushpop``: a quantum is ``RangeStack.quantum`` written out
over the stack's ranges and the tree table's offsets, a deny or a
request is ``send`` written out, and the pushpop hands back the next
event (the pushed one when it is earliest; the keys are unique, so the
order is the heap's).  Which
ranks it serves is fixed per rank at construction: a rank qualifies
when ``type(worker) is Worker`` and it has no event list; the
victim half also needs no forwarding, the thief half no lifelines and
no region peers, and both a ``send`` that is the engine's own.  Every
other event goes to the worker — another status, grants, serves,
forwards, lifelines, traced ranks, a session's first request, and
every event of a ``Worker`` subclass, so an override sees all of
them.  The ``Worker`` methods stay whole: they are the one reference
``tests/sim/oracle.py`` runs, and the differential suite compares the
loop's untraced runs with it.

**A running rank's quanta are not heap events.**  Until an event
reaches it, a plain running rank's quantum touches its own stack
alone.  When one leaves more than ``poll_interval`` nodes, the loop
records the next quantum's key (``_deferred``) and pushes a *wake* —
an EXEC-tagged event whose body is that key — keyed before the rank
could run dry.  The rank is brought up to date, by the same code in
the loop, either by the message that reaches it (every deferred
quantum keyed below the message's key runs, the next goes back on the
heap as an EXEC, then the message is delivered) or by its wake (the
quanta keyed below the wake run, and the next wake or EXEC is
pushed).  Each deferred quantum counts as one event; wakes count
neither as events nor as dropped messages.

**One count is quiescence.**  ``_live`` is running ranks plus grants
sent and not yet received: ``rank_became_idle`` takes one, ``work_sent``
adds one, and the loop takes one for a grant a RUNNING rank merges (a
lifeline push).  At 0, where it stays, rank 0 may declare.

**The quiescent tail is walked, not popped.**  At 0 every rank is a
WAITING thief with one request or deny in flight, and the run is those
chains plus the token until rank 0 declares.  At the first event
boundary where it is 0, the loop pulls every request
and deny off the heap, one chain per thief, and carries on with the
token alone.  When the token declares at key ``(t_d, N-1, s)``,
:meth:`_walk` runs each chain on its own up to that key — the loop's
deny and failed-steal steps, in arrays: victims in blocks from
``selector.draws``, arrival times as one cumulative sum per block — and
counts its one pending message as dropped.  With NIC off a message's
arrival is its send time plus a wire time nothing else changes, a
WAITING victim always denies and a thief draws from its own stream, so
a chain's events depend on its own draws alone and the heap's order
matters only against the declaring key; an exact tie there is settled
by comparing the two events' parents, one rank further back each time
(:func:`_chain_first`).  A run walks only when that argument holds: NIC
off, every rank on both inline paths, the engine's own ``send``, no
selector that takes feedback (it cannot be drawn ahead), no zero wire
time between two ranks and at least three ranks (DESIGN.md §5d).

**NIC contention** (``nic_service_time > 0``) is state, not a
subclass: the node ports a send takes at injection and at arrival.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.config import WorkStealingConfig
from repro.errors import SimulationError, TerminationError
from repro.net.allocation import Placement, build_placement
from repro.net.contention import NicContention
from repro.protocol.core import Worker, WorkerStatus
from repro.protocol.factory import build_plan, make_workers
from repro.protocol.messages import (
    TAG_EXEC,
    TAG_FINISH,
    TAG_STEAL_REQUEST,
    TAG_STEAL_RESPONSE,
    TAG_TOKEN,
)
from repro.sim.termination import DijkstraTermination, TokenAction
from repro.trace.events import EV_TOKEN
from repro.uts.tree import tree_table

__all__ = [
    "DEFAULT_MAX_EVENTS",
    "SimOutcome",
    "Cluster",
]

#: Default runaway guard for one simulation.
DEFAULT_MAX_EVENTS = 100_000_000

#: A rank that holds ``s`` nodes at its next quantum ``tk`` cannot run
#: dry before ``tk + s * per_node_time``; its wake takes this share of
#: that window.  The rest absorbs the rounding of the quanta's time
#: sums, which ``_WAKE_GUARD`` bounds: a wake is armed only while
#: ``per_node_time`` exceeds ``_WAKE_GUARD`` times the latest time the
#: window can reach (DESIGN.md §5d).
_WAKE_SHARE = 0.9375
_WAKE_GUARD = 2.0**-47


def _budget_error(max_events: int) -> SimulationError:
    return SimulationError(
        f"simulation exceeded {max_events} events "
        "(livelock or runaway configuration?)"
    )


def _chain_first(keys: list, index: int, seq: int, tokens: deque) -> bool:
    """Whether a walked chain event comes before the declaring token.

    ``keys`` are the ``(time, pusher)`` of the chain event and of up to
    three ancestors, newest first; the event is the ``index``-th of its
    chain since the pull, and ``seq`` is the heap sequence number of
    the chain's pulled event (index 0).  ``tokens`` are the ``(time,
    pusher, seq)`` keys of the last token events, the declaring one
    last, with ``seq`` None for each pushed after the pull (only the
    first was not).  Two events with the same time and pusher come in
    the order their pusher pushed them, which is the order of the
    events it was processing: compare those, one level further back,
    until the keys differ or one side was pushed before the pull, where
    heap sequence numbers are exact.  A chain's pushers alternate
    between its thief and its victims and the token's walk the ring
    backwards, so with three ranks or more this ends within four
    levels.
    """
    for j, key in enumerate(keys[: index + 1]):
        token = tokens[-1 - j]
        if key != token[:2]:
            return key < token[:2]
        pulled = j == index
        if token[2] is not None:
            return pulled and seq < token[2]
        if pulled:
            return True
    raise SimulationError("a tie with the declaring token is unresolved")


@dataclass
class SimOutcome:
    """Raw output of one simulation (refined by ``repro.ws.results``)."""

    config: WorkStealingConfig
    placement: Placement
    workers: list[Worker]
    total_time: float
    events_processed: int
    messages_dropped: int
    probes_started: int
    #: Per-rank steal-event lists (``config.event_trace``).
    event_streams: list[list[tuple[float, int, int, int]]] | None = None
    #: Of ``events_processed``, the quiescent tail's events that
    #: :meth:`Cluster._walk` ran off the heap.  Not a result field.
    events_walked: int = 0
    #: When no rank ran and no grant was in flight any more: the
    #: latest ``idle_starts[-1]``.  Not a result field.
    quiescent_time: float | None = None

    @property
    def total_nodes(self) -> int:
        return sum(w.nodes_processed for w in self.workers)


class Cluster:
    """A simulated job: config -> placement -> workers -> ``run()``.

    Implements the worker :class:`~repro.protocol.core.Transport`
    protocol.  One instance runs once; :meth:`teardown` then releases
    it to the reference counter.
    """

    def __init__(self, config: WorkStealingConfig, max_events: int | None = None):
        # Keep this object under 30 instance attributes: past that
        # CPython (3.11) stops storing them inline and every
        # ``self.x`` load on the send path gets ~25% slower.
        self.config = config
        assert not isinstance(config.allocation, str)
        assert not isinstance(config.rng_backend, str)
        self.placement = build_placement(
            config.nranks,
            config.allocation,
            latency_model=config.latency_model,
            topology_factory=config.topology_factory,
        )
        self._max_events = (
            max_events if max_events is not None else DEFAULT_MAX_EVENTS
        )
        if self._max_events < 1:
            raise SimulationError(
                f"max_events must be >= 1, got {self._max_events}"
            )
        self.detector = DijkstraTermination(
            config.nranks, lambda: not self._live
        )
        self.event_streams = (
            [[] for _ in range(config.nranks)] if config.event_trace else None
        )

        # One latency row per sender, filled from the model's code rows
        # on a rank's first send, so a send is a list index and
        # ``values[row[dst]]`` at any job scale.  Memory: N rows of N
        # one-byte codes (two past 256 latency values), one float per
        # value, plus row 0 while the finish broadcast is keyed.
        self._row_fn, self._values = self.placement.latency.codes
        self._rows: list = [None] * config.nranks

        self._heap: list = []
        #: Next event sequence number of each rank.
        self._rank_seq = [0] * config.nranks
        self.now = 0.0
        self._finishing = False
        self.messages_dropped = 0
        #: Running ranks plus grants sent and not yet received (module
        #: docstring); 0 is quiescence, where it stays.
        self._live = config.nranks
        self.quiescent_time: float | None = None
        self._transfer_time_per_node = config.transfer_time_per_node
        self._nic = (
            NicContention(self.placement.rank_nodes, config.nic_service_time)
            if config.nic_service_time > 0
            else None
        )

        tree = tree_table(config.tree, config.rng_backend, config.node_cap)
        # Child index ranges: a quantum reads them without a call.
        self._first = tree._first
        plan = build_plan(config, self.placement)
        self.workers: list[Worker] = make_workers(
            config, self.placement, plan, tree, self, self.event_streams
        )
        # Bound once, not per delivery.  They close a cycle through
        # ``worker.transport``, which :meth:`teardown` cuts.
        self._handlers = [w.on_message for w in self.workers]
        # Per rank, the worker whose quanta (``_plain``), idle denies
        # (``_victims``) and failed steals (``_thieves``) ``run``
        # handles itself, or None where the worker's methods do: a
        # subclass may override them and an event list must see every
        # step; a relay is not a deny, and a lifeline threshold or a
        # region draw is not a plain redraw.
        plain = [
            w if type(w) is Worker and w.events is None else None
            for w in self.workers
        ]
        self._plain = plain
        self._victims = [
            w if w is not None and not w._forward else None for w in plain
        ]
        self._thieves = [
            w
            if w is not None and not w._lifelines and w._region_peers is None
            else None
            for w in plain
        ]
        # Per rank, the ``[time, seq]`` key of its next quantum while
        # its quanta are deferred, else None.
        self._deferred: list = [None] * config.nranks

    # ------------------------------------------------------------------
    # Transport interface (used by workers)
    # ------------------------------------------------------------------

    def send(
        self, src: int, dst: int, tag: int, body: object, when: float
    ) -> None:
        if self._finishing:
            # The run is over; in-flight control traffic is dropped,
            # like an MPI job tearing down.
            self.messages_dropped += 1
            return
        row = self._rows[src]
        if row is None:
            row = self._rows[src] = memoryview(self._row_fn(src))
        wire = self._values[row[dst]]
        if body is not None and tag == TAG_STEAL_RESPONSE:
            wire += len(body) * self._transfer_time_per_node
        nic = self._nic
        if nic is None:
            arrival = when + wire
        else:
            # ``NicContention.inject`` at ``src``, then at ``dst``.
            ports, service = nic.port_free, nic.service_time
            node = nic.rank_nodes[src]
            free = ports[node]
            arrival = (when if when >= free else free) + service
            ports[node] = arrival
            arrival += wire
            node = nic.rank_nodes[dst]
            free = ports[node]
            arrival = (arrival if arrival >= free else free) + service
            ports[node] = arrival
        rs = self._rank_seq
        seq = rs[src]
        rs[src] = seq + 1
        if arrival < self.now:
            raise SimulationError(
                f"event scheduled at {arrival} before current time "
                f"{self.now}"
            )
        heapq.heappush(self._heap, (arrival, src, seq, tag, dst, body))

    # What ``run`` writes out; a patch of ``Cluster.send`` leaves it be.
    _own_send = send

    def schedule_exec(self, rank: int, when: float) -> None:
        if when < self.now:
            raise SimulationError(
                f"event scheduled at {when} before current time {self.now}"
            )
        rs = self._rank_seq
        seq = rs[rank]
        rs[rank] = seq + 1
        heapq.heappush(self._heap, (when, rank, seq, TAG_EXEC, rank, None))

    def rank_became_idle(self, rank: int, when: float) -> None:
        self._live -= 1
        if not self._live:
            self.quiescent_time = when
        self._dispatch_token_action(rank, self.detector.rank_idle(rank), when)

    def work_sent(self, rank: int) -> None:
        self._live += 1
        self.detector.work_sent(rank)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def run(self) -> SimOutcome:
        """Start every rank, deliver events in key order until the
        heap drains, check the run terminated cleanly.  A quantum, an
        idle deny and a failed steal of a rank chosen at construction
        run here, not in the worker, and a running rank's quanta are
        deferred between wakes (module docstring)."""
        for worker in self.workers:
            worker.start(0.0)

        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        pushpop = heapq.heappushpop
        rank_seq = self._rank_seq
        workers = self.workers
        handlers = self._handlers
        plain = self._plain
        deferred = self._deferred
        # Sends run inline only while ``send`` is the engine's own.
        if getattr(self.send, "__func__", None) is Cluster._own_send:
            victims, thieves = self._victims, self._thieves
        else:
            victims = thieves = [None] * len(workers)
        first = self._first
        rows, row_fn, values = self._rows, self._row_fn, self._values
        nic = self._nic
        if nic is not None:
            ports, rank_nodes, service = (
                nic.port_free, nic.rank_nodes, nic.service_time
            )
        running = WorkerStatus.RUNNING
        waiting = WorkerStatus.WAITING
        detector = self.detector
        event_streams = self.event_streams
        max_events = self._max_events
        processed = walked = 0
        # Whether the quiescent tail may be walked (every rank on both
        # inline steps, so ``send`` is the engine's own, and no selector
        # that takes feedback), and once it is pulled, the chains and
        # the token's keys since (module docstring).
        tail = (
            nic is None
            and len(workers) >= 3
            and None not in victims
            and None not in thieves
            and all(w._notify is None for w in workers)
        )
        chains = tokens = None
        # The next event if an inline event's pushpop handed it back,
        # and the event a catch-up runs before.
        event = stash = None
        while True:
            if event is None:
                if not heap:
                    if chains is not None:
                        # No token is left to end the chains: the run
                        # would fail them until the budget ran out.
                        raise _budget_error(max_events)
                    break
                event = pop(heap)
            t, src, _seq, tag, rank, body = event
            event = None
            self.now = t
            processed += 1
            if processed > max_events and (tag != TAG_EXEC or body is None):
                # A wake is not an event, nor is a catch-up; every
                # deferred quantum has been counted by the time a later
                # event pops.
                raise _budget_error(max_events)
            if tag == TAG_EXEC:
                # A quantum, a wake or a catch-up: run the rank's quanta
                # from time ``tk`` — the first one always (a wake or a
                # catch-up counts as it), the next while their key is
                # below this event's ``(t, src, _seq)``.
                w = plain[rank]
                if body is None:
                    if w is None or w.status is not running:
                        workers[rank].on_exec(t)
                        continue
                    if w.pending or w.waiters:
                        t = w.serve_pending(t)
                    stack = w.stack
                    if not stack.count:
                        w._go_idle(t)
                        if tail and not self._live and not self._finishing:
                            # Quiescent, and this rank's request is on
                            # the heap: take the tail off it.
                            tail = False
                            chains = self._pull_chains()
                            if chains is not None:
                                # As many as a tie can reach back.
                                tokens = deque(maxlen=4)
                        continue
                    tk = t
                elif body is deferred[rank]:
                    deferred[rank] = None
                    stack = w.stack
                    tk = body[0]
                else:
                    # A wake whose deferral an event ended.
                    processed -= 1
                    continue
                # ``RangeStack.quantum`` written out, quantum after
                # quantum; the counters are settled once per run of
                # quanta.  A pop falls short of ``n0`` only on a stack
                # that holds fewer; ``short`` sums the shortfall.
                segs, count, size = stack.segs, stack.count, stack.chunk_size
                n0, pnt = w.poll_interval, w.per_node_time
                n1 = n0 - 1
                s0 = rank_seq[rank]
                sk = s0 - 1
                short = 0
                while True:
                    held = count
                    hi = segs[-1]
                    m = hi - n0
                    lo = segs[-2]
                    if m >= lo and (count - 1) % size >= n1:
                        # The top ``n0`` nodes lie in one range and the
                        # top chunk; their children are one range.
                        a = first[m]
                        b = first[hi]
                        if m > lo:
                            segs[-1] = m
                            if a != b:
                                segs += a, b
                        elif a != b:
                            segs[-2] = a
                            segs[-1] = b
                        else:
                            del segs[-2:]
                        count += b - a - n0
                        n = n0
                    else:
                        # Chunk by chunk, newest first: the top ``k``
                        # nodes are the ranges from ``segs[i]`` up, the
                        # lowest cut at ``cut``; their children go on
                        # once every chunk is popped.
                        kids = []
                        n = 0
                        k = (count - 1) % size + 1
                        while True:
                            if k > n0 - n:
                                k = n0 - n
                            n += k
                            i = -2
                            got = hi - lo
                            while got < k:
                                i -= 2
                                got += segs[i + 1] - segs[i]
                            lo = segs[i]
                            cut = lo + got - k
                            a = first[cut]
                            j = i
                            while True:
                                b = first[segs[j + 1]]
                                if a != b:
                                    kids += a, b
                                    count += b - a
                                j += 2
                                if not j:
                                    break
                                a = first[segs[j]]
                            if cut > lo:
                                segs[i + 1 :] = (cut,)
                            else:
                                del segs[i:]
                            if n == n0 or not segs:
                                break
                            k = size
                            hi = segs[-1]
                            lo = segs[-2]
                        segs += kids
                        count -= n
                        short += n0 - n
                    sk += 1
                    tk += n * pnt
                    if tk > t or tk == t and (
                        rank > src or rank == src and sk > _seq
                    ):
                        break
                stack.count = count
                rank_seq[rank] = sk + 1
                processed += sk - s0
                w.nodes_processed += (sk - s0 + 1) * n0 - short
                if stash is not None:
                    # A catch-up: the next quantum goes back on the
                    # heap, and the event it was made for is delivered.
                    push(heap, (tk, rank, sk, TAG_EXEC, rank, None))
                    tag, body = stash
                    stash = None
                    handlers[rank](t, tag, src, body)
                    continue
                # Children only add: the stack holds ``s`` nodes or
                # more at quantum ``tk``.
                s = held - n
                if s > n0 and not w.waiters:
                    span = s * pnt
                    if (tk + span + span) * _WAKE_GUARD < pnt:
                        # Until an event reaches it, the rank's quanta
                        # touch its stack alone, and it cannot run dry
                        # before ``tk + span``: defer them to a wake
                        # keyed before that, far enough for rounding
                        # (DESIGN.md §5d).
                        body = [tk, sk]
                        deferred[rank] = body
                        event = pushpop(
                            heap,
                            (tk + span * _WAKE_SHARE, rank, -1, TAG_EXEC,
                             rank, body),
                        )
                        continue
                event = pushpop(heap, (tk, rank, sk, TAG_EXEC, rank, None))
                continue
            if tag == TAG_STEAL_RESPONSE:
                w = thieves[rank]
                if body is None and w is not None and w.status is waiting:
                    # A failed steal: count it, draw, send the next
                    # request.
                    w.failed_steals += 1
                    failed = w.consecutive_failed_steals + 1
                    w.consecutive_failed_steals = failed
                    if w._notify is not None:
                        w._notify(src, False)
                    dst = w.selector.next_victim()
                    w.steal_requests_sent += 1
                    w._session_attempts += 1
                    after = w._escalate_after
                    tag = TAG_STEAL_REQUEST
                    body = after is not None and failed >= after
                else:
                    w = None
            elif tag == TAG_STEAL_REQUEST:
                w = victims[rank]
                if w is not None and w.status is waiting:
                    # An idle rank has nothing to give.
                    w.requests_denied += 1
                    dst, tag, body = src, TAG_STEAL_RESPONSE, None
                else:
                    w = None
            elif tag == TAG_TOKEN:
                # A token at a running rank is held: it reads only the
                # status, so deferred quanta need no catch-up.
                if event_streams is not None:
                    event_streams[rank].append((t, EV_TOKEN, body, 0))
                action = detector.token_arrived(
                    rank, body, workers[rank].status is WorkerStatus.WAITING
                )
                if tokens is not None:
                    # Only the token the pull found has an exact seq.
                    tokens.append((t, src, None if tokens else _seq))
                    if action.terminated:
                        # The walked events count against the budget
                        # from the first Finish on.
                        walked = self._walk(chains, tokens)
                        processed += walked
                        chains = tokens = None
                self._dispatch_token_action(rank, action, t)
                continue
            else:
                w = None
            if w is None:
                if tag == TAG_STEAL_RESPONSE and body and (
                    workers[rank].status is running
                ):
                    self._live -= 1  # a lifeline push merged into a stack
                key = deferred[rank]
                if key is not None:
                    # The rank's deferred quanta below this event's key
                    # run first, in a catch-up that ends the deferral.
                    tk, sk = key
                    if tk < t or tk == t and (
                        rank < src or rank == src and sk < _seq
                    ):
                        stash = (tag, body)
                        event = (t, src, _seq, TAG_EXEC, rank, key)
                        continue
                    deferred[rank] = None
                    push(heap, (tk, rank, sk, TAG_EXEC, rank, None))
                handlers[rank](t, tag, src, body)
                continue
            # ``send`` of the request or the deny, written out: neither
            # carries nodes, so the wire time is the code row's alone.
            if self._finishing:
                self.messages_dropped += 1
                continue
            row = rows[rank]
            if row is None:
                row = rows[rank] = memoryview(row_fn(rank))
            arrival = values[row[dst]]
            if nic is None:
                arrival += t
            else:
                node = rank_nodes[rank]
                free = ports[node]
                depart = (t if t >= free else free) + service
                ports[node] = depart
                arrival += depart
                node = rank_nodes[dst]
                free = ports[node]
                arrival = (arrival if arrival >= free else free) + service
                ports[node] = arrival
            seq = rank_seq[rank]
            rank_seq[rank] = seq + 1
            if arrival < t:
                raise SimulationError(
                    f"event scheduled at {arrival} before current time {t}"
                )
            event = pushpop(heap, (arrival, rank, seq, tag, dst, body))
        return self._finalize(processed, walked)

    # ------------------------------------------------------------------
    # The quiescent tail
    # ------------------------------------------------------------------

    def _pull_chains(self) -> list | None:
        """Take every request and deny off the heap — one per thief,
        every rank WAITING — and return them; or return None, leaving
        the heap be, where a wire time could vanish in a sum.

        The walk compares keys as the heap orders them, which holds
        while every send lands strictly later than it leaves
        (``t + wire > t``).  The token declares within three turns of
        the ring, so no event it compares with is later than
        ``horizon``; a wire time above ``horizon * 2**-50`` is four
        ulps or more there.
        """
        heap = self._heap
        values = self._values
        diagonal = int(self._row_fn(0)[0])
        wire = [v for code, v in enumerate(values) if code != diagonal]
        horizon = max(e[0] for e in heap) + 4 * len(self.workers) * max(wire)
        if min(wire) <= horizon * 2.0**-50:
            return None
        chains = []
        rest = []
        for e in heap:
            tag = e[3]
            if tag == TAG_STEAL_REQUEST or tag == TAG_STEAL_RESPONSE:
                chains.append(e)
            else:
                rest.append(e)
        heapq.heapify(rest)
        heap[:] = rest
        return chains

    def _walk(self, chains: list, tokens: deque) -> int:
        """Run each pulled chain on its own up to the declaring key
        ``tokens[-1]``, count its pending message as dropped, and
        return how many events ran.

        A chain alternates a request at a WAITING victim (deny it) and
        a deny at its WAITING thief (count it, draw, request again),
        the loop's two steps.  Its victims come in blocks from
        ``selector.draws``, and its arrival times are one cumulative
        sum per block of ``[t, d1, d1, d2, d2, ...]``, ``d`` the wire
        time off the thief's own code row (rows are symmetric), which
        adds in the order the loop adds.  The first time at or past the
        declaring time cuts the chain; a tie there from the declaring
        token's pusher goes to :func:`_chain_first` with up to three
        ancestors.  Counters are summed per rank at the end.
        """
        td, last, _ = tokens[-1]
        workers = self.workers
        rows, row_fn = self._rows, self._row_fn
        values = np.array(self._values)
        rank_seq = self._rank_seq
        denied = np.zeros(len(workers), np.int64)
        walked = 0
        # Drawn victims per simulated second over the blocks walked so
        # far (each victim is a request and its deny): it sizes the
        # next block, and the first chain seeds it from its mean wire.
        drawn = span = 0.0
        for t, src, seq, tag, dst, _ in chains:
            req = tag == TAG_STEAL_REQUEST
            thief, victim = (src, dst) if req else (dst, src)
            w = workers[thief]
            draw = w.selector.draws
            own = rows[thief]
            if own is None:
                own = rows[thief] = memoryview(row_fn(thief))
            own = np.asarray(own)
            if not drawn:
                drawn, span = 1.0, 2.0 * float(values[own].mean())
            # Events are indexed in the chain since the pull (the pulled
            # one is 0): ``(index + off) % 2`` is 1 for a request, 0 for
            # a deny.
            off = 1 if req else 0
            # The chain's times by index, and ``picks[j]``, the victim
            # of its j-th deny, in blocks.
            times, picks = [], [np.array([victim])]
            # A block starts at ``cur``, the time of the chain's event
            # ``base``: the pulled one, then the last deny of a block.
            base, cur = 0, t
            while True:
                k = int((td - cur) * drawn / span * 1.0625) + 2
                victims = draw(k)
                wire = values[own[victims]]
                lead = [cur]
                if req and not times:
                    # The pulled request's deny leads the first block.
                    lead.append(values[own[victim]])
                h = len(lead)
                buf = np.empty(h + 2 * k)
                buf[:h] = lead
                buf[h::2] = wire
                buf[h + 1 :: 2] = wire
                at = np.cumsum(buf)
                cut = int(at.searchsorted(td))
                times.append(at[1:] if times else at)
                picks.append(victims)
                if cut < len(at):
                    break
                drawn += k
                span += at[-1] - cur
                base += len(at) - 1
                cur = at[-1]
            picks = np.concatenate(picks)
            if at[cut] == td:
                index = base + cut
                times = np.concatenate(times)

                def pusher(i: int) -> int:
                    if (i + off) % 2:
                        return thief
                    return int(picks[(i + 1 - off) // 2])

                # A request and up to two ancestors, a deny and three.
                depth = 3 if (index + off) % 2 else 4
                keys = [
                    (float(times[i]), pusher(i))
                    for i in range(index, max(index - depth, -1), -1)
                ]
                if pusher(index) != last or _chain_first(
                    keys, index, seq, tokens
                ):
                    cut += 1
            # ``n`` events ran, denies and requests in turn; the
            # requests went to ``picks[1 - off:]``.
            n = base + cut
            failed = (n + 1 - off) // 2
            walked += n
            np.add.at(denied, picks[1 - off : 1 - off + n - failed], 1)
            w.failed_steals += failed
            w.consecutive_failed_steals += failed
            w.steal_requests_sent += failed
            w._session_attempts += failed
            rank_seq[thief] += failed
        for rank in np.flatnonzero(denied).tolist():
            count = int(denied[rank])
            workers[rank].requests_denied += count
            rank_seq[rank] += count
        self.messages_dropped += len(chains)
        return walked

    def teardown(self) -> None:
        """Break the reference cycle of a finished run.

        ``Worker -> cluster -> workers`` (and the loop's per-rank
        lists, and the detector's check of ``_live``, a closure)
        would otherwise keep every finished simulation (stacks,
        selector state, latency rows) alive until a gen-2 collection,
        so back-to-back runs grow the heap.  Call once nothing reads
        the outcome's workers any more (``run_uts`` does, after
        ``RunResult.from_outcome``).
        """
        self.workers = []
        self._handlers = []
        self._plain = self._victims = self._thieves = []
        self._deferred = []
        self.detector = None

    # ------------------------------------------------------------------
    # Termination
    # ------------------------------------------------------------------

    def _dispatch_token_action(
        self, src: int, action: TokenAction, when: float
    ) -> None:
        if action.terminated:
            self._broadcast_finish(when)
        elif action.sends:
            assert action.send_color is not None and action.send_to is not None
            self.send(src, action.send_to, TAG_TOKEN, action.send_color, when)

    def _broadcast_finish(self, when: float) -> None:
        """Rank 0 proved termination: tell everyone, drop the rest.

        Every pending event is dropped (and every later send: the run
        is over), rank 0 gets Finish synchronously (uncounted), and the
        Finish events of the other ranks are keyed with pusher 0
        continuing its counter — the sequence a single queue's pushes
        produce.  They pay wire latency but no NIC port.
        """
        # Wakes left behind by a deferral that a message ended are not
        # messages.
        self.messages_dropped += sum(
            1 for e in self._heap if e[3] != TAG_EXEC or e[5] is None
        )
        self._heap.clear()
        self._finishing = True
        c0 = self._rank_seq[0]
        self.workers[0].on_message(when, TAG_FINISH, 0, None)
        values, row0 = self._values, self._row_fn(0).tolist()
        for rank in range(1, self.config.nranks):
            heapq.heappush(
                self._heap,
                (when + values[row0[rank]], 0, c0 + rank - 1, TAG_FINISH, rank,
                 None),
            )
        self._rank_seq[0] = c0 + self.config.nranks - 1

    def _finalize(self, events_processed: int, walked: int) -> SimOutcome:
        workers = self.workers
        if sum(w.nodes_processed for w in workers) > self.config.node_cap:
            raise SimulationError(
                f"run exceeded node cap {self.config.node_cap}"
            )
        if not self.detector.terminated:
            raise TerminationError(
                "event queue drained before termination was detected"
            )
        for worker in workers:
            if worker.status is not WorkerStatus.DONE:
                raise TerminationError(
                    f"rank {worker.rank} never received Finish"
                )
            if not worker.stack.is_empty:
                raise TerminationError(
                    f"rank {worker.rank} terminated holding "
                    f"{worker.stack.size} nodes"
                )
        sent = sum(w.nodes_sent for w in workers)
        received = sum(w.nodes_received for w in workers)
        if sent != received:
            raise TerminationError(
                f"work lost in flight: {sent} nodes sent but "
                f"{received} received"
            )
        return SimOutcome(
            config=self.config,
            placement=self.placement,
            workers=workers,
            total_time=max(w.finish_time for w in workers),
            events_processed=events_processed,
            messages_dropped=self.messages_dropped,
            probes_started=self.detector.probes_started,
            event_streams=self.event_streams,
            events_walked=walked,
            quiescent_time=self.quiescent_time,
        )

