"""The simulation engine: one event core, optionally sharded.

:class:`ShardedCluster` is the only engine.  It splits the rank space
into contiguous, node-aligned *shards*, each a :class:`_Shard` with its
own event heaps, its own termination-detector slice, and its own
table of latency code rows (one byte per destination), one per local
sender, so every send is two list indexes regardless of job scale.
``engine="sequential"`` is the one-shard case: a single
:class:`_Shard` owns every rank and runs as one unbounded
``process_window`` — no windows, candidate stops or key caps.  NIC contention (``nic_service_time > 0``) is applied inside
:meth:`_NicShard.send` and also resolves to one shard: delivery occupies
the *destination* node's port at send-processing time, so with more
than one shard there is no lookahead on port state (DESIGN.md §5d).

With more than one shard, correctness rests on the classic
conservative-synchronisation argument (Chandy–Misra–Bryant),
specialised to our fixed latency models:

* every cross-shard message is cross-node (shards are node-aligned),
  so it pays at least ``L = latency_model.min_remote_latency()`` of
  wire time;
* therefore, if ``W`` is the earliest pending event time anywhere, no
  shard can receive a new message before ``W + L`` — each shard may
  process all its events with ``time < W + L`` *locally*, in any
  inter-shard interleaving, before the next exchange.

Bit-identity across shard counts (not just statistical equivalence)
follows from the event key design in :mod:`repro.sim.engine`: events
are ordered by ``(time, pusher, per-pusher seq)``, a globally unique
key computable by the pusher's home shard alone.  Every shard count
delivers each rank's events in exactly the same order, so every float
is computed by the same operations in the same sequence.
``tests/sim/test_sharded.py`` asserts this against a deliberately
plain single-queue reference (``tests/sim/oracle.py``) across the
whole selector × steal-policy registry, byte-for-byte on the canonical
trace encoding.

Termination needs one refinement: Dijkstra-ring termination fires at
rank 0 and atomically drops every in-flight message, so the triggering
event must be processed when it is the *global* minimum and no shard
has advanced past it.  The only events that can trigger it
("candidates") are a token arriving at rank 0 and an EXEC at rank 0
with an empty stack; shard 0 stops its window early at a candidate and
reports its key, which caps how far the other shards may advance.
When the candidate becomes the global minimum it is processed alone.

Three window-level optimisations ride on that argument (each behind a
module flag so the differential suite can exercise every combination):

* **Burst execution** (:data:`USE_BURST`).  The event heap is split
  into a message heap and an EXEC heap.  When the popped event is an
  EXEC for a plain worker with no pending requests and a non-empty
  stack, the shard lets the worker run *chained* compute quanta
  (:meth:`~repro.sim.worker.Worker.run_quanta`) up to the earliest of
  the window horizon, the candidate cap and the head of either heap —
  provided that stop leaves room for at least two full quanta (below
  that the burst call costs more than the heap round-trip it saves).
  Because the burst stops at the first instant any other local event
  exists, it is literally the sequential event order — idle
  transitions, steal serving and every send stay on the ordered path,
  and the next EXEC is materialised back into the heap with the exact
  seq a single queue would have assigned (one seq per quantum;
  a pure-compute quantum pushes nothing else).

* **Window extension** (:data:`USE_WINDOW_EXTENSION`) — the sound
  replacement for naive "grant k windows per barrier".  No shard can
  *receive* before the earliest possible *send* plus ``L``.  A shard's
  earliest send is bounded below by ``E = min(message-heap head; per
  EXEC entry: t if the worker has pending requests or serves lifeline
  work, else t + stack_size * per_node_time)`` — a worker drains its
  stack before it can go idle and emit a steal request, and a burst
  emits nothing at all.  The window may therefore run to
  ``E + L >= gmin + L`` instead of ``gmin + L``; during pure-compute
  phases this collapses thousands of barrier rounds into one.

* **Probe overlap** (:data:`USE_OVERLAP`, multiprocess only).  The
  old protocol serialised every round: probe shard 0 for a candidate
  key, wait, then window everyone else with that cap.  A candidate at
  shard 0 can only arise from shard 0's *own* state (cross-shard
  traffic is next-round by CMB), so when ``min(shard 0's send bound,
  arrival times of in-flight traffic to shard 0) >= horizon`` no
  candidate can appear inside the window and all children step in one
  fused round-trip.  Shard 0 still runs with candidate stops as a
  self-check; a candidate inside an overlapped window raises.

``shard_workers > 1`` distributes shards over OS processes.  Staged
outboxes cross the process boundary as packed numpy blobs
(:mod:`repro.sim.shardcodec`, flag :data:`WIRE_CODEC`) that the
coordinator routes opaquely by ``(target, min_key, count)`` metadata;
``shard_transport="shm"`` moves the blob bytes through
``multiprocessing.shared_memory`` scratch segments (single-writer by
the request-reply discipline) with a clean per-payload and
per-platform fallback to pipes.  The coordinator batches absorb +
window + head-report into one ``step`` round-trip, skips children
whose shards have nothing under the horizon, and accounts in-flight
blobs dropped by a termination broadcast exactly like shard-local
drops.  (The :mod:`repro.exec` ``WorkerPool`` is not reused here: its
executor does not pin tasks to processes, and the barrier loop needs
resident per-process shard state.)
"""

from __future__ import annotations

import heapq
import os
import time
from bisect import bisect_right

from repro.core.config import WorkStealingConfig
from repro.core.tracing import TraceRecorder
from repro.errors import ConfigurationError, SimulationError, TerminationError
from repro.net.allocation import aligned_block_bounds, build_placement
from repro.net.contention import NicContention
from repro.protocol.factory import build_plan, make_worker
from repro.protocol.messages import (
    TAG_STEAL_RESPONSE,
    TAG_TOKEN,
    Finish,
    Token,
)
from repro.sim.clock import ClockSkewModel
from repro.sim.cluster import SimOutcome
from repro.sim.engine import DEFAULT_MAX_EVENTS, EVT_EXEC, EVT_MSG
from repro.sim.termination import DijkstraTermination, TokenAction
from repro.sim.worker import Worker, WorkerStatus
from repro.trace.events import EV_TOKEN, EventRecorder
from repro.uts.tree import TreeGenerator

__all__ = [
    "ShardedCluster",
    "auto_shards",
    "auto_shard_workers",
    "shard_bounds",
]

_INF = float("inf")
#: Two float64 rounding units: the relative slack per operation that
#: :meth:`_Shard.send_bound` takes off its one-shot drain estimate.
_TWO_ULP = 2.0**-52

#: Fuse chained pure-compute quanta into one worker call (layer 4).
USE_BURST = True
#: Extend windows to the earliest-send bound + lookahead (layer 2).
USE_WINDOW_EXTENSION = True
#: Overlap the shard-0 candidate probe with the other windows (layer 2,
#: multiprocess protocol only).
USE_OVERLAP = True
#: Ship cross-shard outboxes as packed numpy blobs instead of pickled
#: entry lists (layer 1, multiprocess transport only).
WIRE_CODEC = True

#: Scratch bytes per direction per child for ``shard_transport="shm"``.
#: Blobs that do not fit ride the pipe inline instead.
SHM_SEGMENT_SIZE = 1 << 20

#: ``step`` cap sentinel asking shard 0 to probe for a candidate key.
_PROBE = "probe"


def auto_shards(nranks: int) -> int:
    """Default shard count: one shard per ~512 ranks, capped at 16."""
    return max(1, min(16, nranks // 512))


def auto_shard_workers() -> int:
    """Default process count for ``shard_workers=0``: one per core.

    The coordinator round-trips once or twice per lookahead window, so
    oversubscribing cores only adds scheduling noise; the effective
    count is additionally capped at the shard count by
    :class:`ShardedCluster`.
    """
    return max(1, os.cpu_count() or 1)


def shard_bounds(
    nranks: int, nshards: int, rank_nodes
) -> tuple[list[int], bool]:
    """Contiguous rank-block boundaries, snapped to node boundaries.

    Returns ``(bounds, aligned)`` with ``bounds[s]..bounds[s+1]`` the
    rank range of shard ``s``.  Each ideal cut ``s * nranks / nshards``
    is moved down to the nearest index where the hosting node changes,
    so no compute node spans two shards and cross-shard traffic is
    guaranteed cross-node.  If a cut cannot be node-aligned (e.g. a
    randomised allocation interleaves nodes arbitrarily), the ideal
    cuts are kept and ``aligned`` is False — the caller must then use
    the narrower any-pair latency bound as its lookahead.

    The partition itself is :func:`repro.net.allocation.
    aligned_block_bounds` — the same geometry the protocol layer's
    locality regions use, kept in one place so "one region" and "one
    shard" can mean the same rank block.
    """
    return aligned_block_bounds(nranks, nshards, rank_nodes)


class _WorkerSnapshot:
    """Picklable stand-in for a :class:`Worker` shipped across processes.

    Carries exactly the attributes :class:`SimOutcome` consumers
    (``repro.ws.results``, the cluster post-checks) read from workers.
    """

    __slots__ = (
        "rank",
        "status",
        "sessions",
        "nodes_processed",
        "steal_requests_sent",
        "failed_steals",
        "successful_steals",
        "requests_served",
        "requests_denied",
        "requests_forwarded",
        "forwards_served",
        "chunks_sent",
        "nodes_sent",
        "chunks_received",
        "nodes_received",
        "service_time",
        "finish_time",
        "search_time",
        "stack_empty",
    )

    def __init__(self, worker: Worker):
        self.rank = worker.rank
        self.status = worker.status
        self.sessions = worker.sessions
        self.nodes_processed = worker.nodes_processed
        self.steal_requests_sent = worker.steal_requests_sent
        self.failed_steals = worker.failed_steals
        self.successful_steals = worker.successful_steals
        self.requests_served = worker.requests_served
        self.requests_denied = worker.requests_denied
        self.requests_forwarded = worker.requests_forwarded
        self.forwards_served = worker.forwards_served
        self.chunks_sent = worker.chunks_sent
        self.nodes_sent = worker.nodes_sent
        self.chunks_received = worker.chunks_received
        self.nodes_received = worker.nodes_received
        self.service_time = worker.service_time
        self.finish_time = worker.finish_time
        self.search_time = worker.search_time
        self.stack_empty = worker.stack.is_empty

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)


class _Shard:
    """One rank block: local heaps, workers, detector slice, transport.

    Implements the worker :class:`~repro.sim.worker.Transport`
    protocol.  Sends to local ranks push straight into the local
    message heap; cross-shard sends are staged, pre-keyed, into
    per-target outboxes and merged at the next exchange — heap order
    is fully determined by the globally unique keys, so merge order
    cannot matter.

    Events live in two heaps: ``_msg_heap`` (message deliveries,
    including everything absorbed from other shards) and ``_exec_heap``
    (each RUNNING rank's single outstanding EXEC).  The split is what
    makes burst eligibility and the earliest-send bound O(running
    ranks) instead of O(heap) — comparisons across the two heads
    reproduce the single-heap order exactly because event keys are
    globally unique (the tuple compare never reaches the kind field).
    """

    def __init__(
        self,
        index: int,
        bounds: list[int],
        config: WorkStealingConfig,
        placement,
        clock: ClockSkewModel,
        generator: TreeGenerator,
        max_events: int,
        recorders: list[TraceRecorder] | None,
        event_recorders: list[EventRecorder] | None,
    ):
        self.index = index
        self.bounds = bounds
        self.lo = bounds[index]
        self.hi = bounds[index + 1]
        self.nranks = config.nranks
        # Keep this object under 30 instance attributes: past that
        # CPython (3.11) stops storing them inline and every
        # ``self.x`` load on the send path gets ~25% slower.
        self.clock = clock
        self.detector = DijkstraTermination(config.nranks)

        # The structural perf win: a shard-private table of latency
        # rows, one slot per local sender, filled from the latency
        # model's code rows on a rank's first send, so a send is a list
        # index and ``values[row[dst]]`` at any job scale.  ``src`` is
        # always a local rank (only a home shard may number a rank's
        # events).  Memory: (hi - lo) rows of N one-byte codes (two
        # past 256 latency values) per shard, one float per value, plus
        # row 0 while the finish broadcast is keyed.
        self._row_fn, self._values = placement.latency.codes
        self._rows: list = [None] * (self.hi - self.lo)

        self._msg_heap: list = []
        self._exec_heap: list = []
        #: Next event sequence number of each local rank.
        self._rank_seq = [0] * (self.hi - self.lo)
        self.now = 0.0
        self.processed = 0
        self._max_events = max_events
        self._outbox: list[list] = [[] for _ in range(len(bounds) - 1)]
        self._finishing = False
        self.messages_dropped = 0
        self.nodes_total = 0
        self._node_budget = config.node_cap
        #: Set by ``_local_finish`` (shard 0 only): ``(when, c0)``.
        self.finish_info: tuple[float, int] | None = None
        self._transfer_time_per_node = config.transfer_time_per_node
        self._per_node_time = config.per_node_time
        #: Simulated length of one full compute quantum.
        self._quantum_time = config.poll_interval * config.per_node_time

        self.event_recorders = event_recorders
        # One factory (and thus the same ProtocolPlan values) for every
        # shard — the construction half of bit-identity.
        plan = build_plan(config, placement)
        self.workers: list[Worker] = [
            make_worker(
                rank,
                config,
                placement,
                plan,
                generator,
                transport=self,
                trace=recorders[rank] if recorders else None,
                events=event_recorders[rank] if event_recorders else None,
            )
            for rank in range(self.lo, self.hi)
        ]
        # Message delivery skips the ``Worker.on_message`` trampoline
        # unless a subclass overrides it.  Bound once here (building it
        # per window cost 28% of a 4096-rank run); the bound methods
        # close a cycle through ``protocol.transport``, which
        # ``ShardedCluster.teardown`` cuts.
        self._handlers = [
            w.protocol.on_message
            if type(w).on_message is Worker.on_message
            else w.on_message
            for w in self.workers
        ]

    # ------------------------------------------------------------------
    # Transport interface (used by workers)
    # ------------------------------------------------------------------

    def send(self, src: int, dst: int, payload: object, when: float) -> None:
        if self._finishing:
            self.messages_dropped += 1
            return
        i = src - self.lo
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = memoryview(self._row_fn(src))
        wire = self._values[row[dst]]
        if (
            getattr(payload, "tag", None) == TAG_STEAL_RESPONSE
            and payload.chunks is not None
        ):
            wire += payload.nodes * self._transfer_time_per_node
        arrival = when + wire
        rs = self._rank_seq
        seq = rs[i]
        rs[i] = seq + 1
        entry = (arrival, src, seq, EVT_MSG, dst, payload)
        if self.lo <= dst < self.hi:
            if arrival < self.now:
                raise SimulationError(
                    f"event scheduled at {arrival} before current time "
                    f"{self.now}"
                )
            heapq.heappush(self._msg_heap, entry)
        else:
            self._outbox[bisect_right(self.bounds, dst) - 1].append(entry)

    def schedule_exec(self, rank: int, when: float) -> None:
        if when < self.now:
            raise SimulationError(
                f"event scheduled at {when} before current time {self.now}"
            )
        rs = self._rank_seq
        i = rank - self.lo
        seq = rs[i]
        rs[i] = seq + 1
        heapq.heappush(
            self._exec_heap, (when, rank, seq, EVT_EXEC, rank, None)
        )

    def rank_became_idle(self, rank: int, when: float) -> None:
        self._dispatch_token_action(rank, self.detector.rank_idle(rank), when)

    def work_sent(self, rank: int) -> None:
        self.detector.work_sent(rank)

    def nodes_executed(self, n: int) -> None:
        self.nodes_total += n
        if self.nodes_total > self._node_budget:
            raise SimulationError(
                f"run exceeded node cap {self._node_budget}"
            )

    def local_time(self, rank: int, true_time: float) -> float:
        return self.clock.local_time(rank, true_time)

    # ------------------------------------------------------------------
    # Coordinator interface
    # ------------------------------------------------------------------

    def start_workers(self) -> None:
        for worker in self.workers:
            worker.start(0.0)

    def absorb(self, entries: list) -> None:
        # Cross-shard entries are always messages (EXECs are local).
        heap = self._msg_heap
        push = heapq.heappush
        for entry in entries:
            push(heap, entry)

    def take_outboxes(self, encode: bool) -> list:
        """Drain staged cross-shard traffic as ``(target, data,
        min_key, count)`` — ``data`` is a codec blob when ``encode``
        else the raw entry list; the metadata lets the coordinator
        route and bound without ever decoding."""
        from repro.sim.shardcodec import encode_entries, min_entry_key

        out = []
        for target, box in enumerate(self._outbox):
            if box:
                key = min_entry_key(box)
                out.append(
                    (
                        target,
                        encode_entries(box) if encode else box,
                        key,
                        len(box),
                    )
                )
                self._outbox[target] = []
        return out

    def _head(self):
        mh = self._msg_heap
        eh = self._exec_heap
        if not mh:
            return eh[0] if eh else None
        if not eh or mh[0] < eh[0]:
            return mh[0]
        return eh[0]

    def head_key(self) -> tuple[float, int, int] | None:
        head = self._head()
        if head is None:
            return None
        return (head[0], head[1], head[2])

    def head_is_candidate(self) -> bool:
        """Whether the head event could trigger global termination.

        Only meaningful on shard 0: a token arriving at rank 0, or an
        EXEC at rank 0 whose stack is empty at event start (serving
        pending steals can never empty a non-empty stack — thieves only
        take whole bottom chunks, the private top chunk stays — so
        head-time emptiness equals idle-decision emptiness).
        """
        head = self._head()
        if head is None or head[4] != 0:
            return False
        if head[3] == EVT_EXEC:
            return not self.workers[0].stack._chunks
        return getattr(head[5], "tag", None) == TAG_TOKEN

    def send_bound(self) -> float:
        """Earliest true time at which this shard could emit any send.

        Two sources of sends exist: delivering a pending message (a
        steal request answered at arrival, a token forwarded, work
        received triggering lifeline pushes) — bounded by the message
        heap head — and a rank's EXEC chain.  A plain RUNNING worker
        with no pending requests cannot send before it drains its
        stack and goes idle, which takes at least ``stack_size *
        per_node_time`` from its next EXEC (children only add nodes, so
        this is a lower bound); a worker with queued requests, or a
        lifeline worker (whose serve hook pushes spontaneously), may
        send at the EXEC itself.  No send can therefore happen before
        the returned bound, so no *arrival* anywhere can happen before
        it plus the cross-shard lookahead — the window-extension
        horizon.

        The drain estimate is one multiply where the engine accumulates
        ``t += npop * per_node_time`` quantum by quantum, which can
        round to an ulp *below* the one-shot product; taking ``(size +
        2) * 2**-52`` of the estimate off it covers every rounding of
        both (the argument is DESIGN.md §5d-par).
        """
        mh = self._msg_heap
        bound = mh[0][0] if mh else _INF
        pnt = self._per_node_time
        lo = self.lo
        workers = self.workers
        for entry in self._exec_heap:
            t = entry[0]
            if t >= bound:
                continue
            w = workers[entry[1] - lo]
            if w.pending or not w._plain_serve:
                b = t
            else:
                size = w.stack.size
                b = t + size * pnt
                b -= b * (size + 2) * _TWO_ULP
            if b < bound:
                bound = b
        return bound

    def send_bound_quick(self) -> float:
        """Message-heap half of :meth:`send_bound` (cheap gate)."""
        mh = self._msg_heap
        return mh[0][0] if mh else _INF

    def process_one(self) -> None:
        """Pop and dispatch exactly the head event (the candidate path)."""
        mh = self._msg_heap
        eh = self._exec_heap
        if mh and (not eh or mh[0] < eh[0]):
            self._dispatch(heapq.heappop(mh))
        else:
            self._dispatch(heapq.heappop(eh))

    def process_window(
        self,
        horizon: float,
        key_cap: tuple[float, int, int] | None = None,
        stop_candidates: bool = False,
    ) -> tuple[float, int, int] | None:
        """Process local events with ``time < horizon`` in key order.

        ``key_cap`` additionally stops at the first event with key >=
        cap (the candidate key reported by shard 0).  With
        ``stop_candidates`` (shard 0), stops *before* a candidate and
        returns its key.  Newly generated local events that fall inside
        the window are picked up in the same pass.

        With :data:`USE_BURST`, an EXEC for a plain no-pending worker
        with work runs chained quanta up to the earliest of the
        horizon, the cap and either heap head — below that stop there
        is provably no other local event, so the burst *is* the
        sequential order (see the worker's ``run_quanta``).  The burst
        is taken only when that stop leaves room for at least two full
        quanta; a one-quantum burst is the plain ``on_exec`` with
        extra bookkeeping (and in a T3M run at 64 or 256 ranks every
        burst the bare ``t_stop > t`` test admits is one quantum).  Each
        quantum consumes exactly one event and one seq of the rank
        (the rescheduled EXEC), which the epilogue accounts before
        materialising the next EXEC; a burst ending with an empty
        stack leaves the idle transition as an ordered heap event.
        """
        mheap = self._msg_heap
        eheap = self._exec_heap
        pop = heapq.heappop
        push = heapq.heappush
        workers = self.workers
        handlers = self._handlers
        lo = self.lo
        detector = self.detector
        event_recorders = self.event_recorders
        max_events = self._max_events
        processed = self.processed
        use_burst = USE_BURST
        cap_t = key_cap[0] if key_cap is not None else None
        quantum = self._quantum_time
        rs = self._rank_seq
        try:
            while mheap or eheap:
                if not eheap or (mheap and mheap[0] < eheap[0]):
                    head = mheap[0]
                    heap = mheap
                else:
                    head = eheap[0]
                    heap = eheap
                t = head[0]
                if t >= horizon:
                    break
                if key_cap is not None and (
                    (t, head[1], head[2]) >= key_cap
                ):
                    break
                kind = head[3]
                rank = head[4]
                if stop_candidates and rank == 0:
                    if (
                        kind == EVT_EXEC
                        and not workers[0].stack._chunks
                    ) or (
                        kind == EVT_MSG
                        and getattr(head[5], "tag", None) == TAG_TOKEN
                    ):
                        return (t, head[1], head[2])
                pop(heap)
                self.now = t
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"simulation exceeded {max_events} events "
                        "(livelock or runaway configuration?)"
                    )
                payload = head[5]
                if kind == EVT_EXEC:
                    worker = workers[rank - lo]
                    if (
                        use_burst
                        and worker._plain_serve
                        and not worker.pending
                        and worker.stack._chunks
                    ):
                        t_stop = horizon
                        if cap_t is not None and cap_t < t_stop:
                            t_stop = cap_t
                        if mheap and mheap[0][0] < t_stop:
                            t_stop = mheap[0][0]
                        if eheap and eheap[0][0] < t_stop:
                            t_stop = eheap[0][0]
                        if t + quantum < t_stop:
                            t_end, nq = worker.run_quanta(t, t_stop)
                            self.now = t_end
                            processed += nq - 1
                            if processed > max_events:
                                raise SimulationError(
                                    f"simulation exceeded {max_events} "
                                    "events (livelock or runaway "
                                    "configuration?)"
                                )
                            seq0 = rs[rank - lo]
                            rs[rank - lo] = seq0 + nq
                            push(
                                eheap,
                                (
                                    t_end,
                                    rank,
                                    seq0 + nq - 1,
                                    EVT_EXEC,
                                    rank,
                                    None,
                                ),
                            )
                            continue
                    worker.on_exec(t)
                elif getattr(payload, "tag", None) == TAG_TOKEN:
                    worker = workers[rank - lo]
                    if event_recorders is not None:
                        event_recorders[rank].append(
                            t, EV_TOKEN, payload.color
                        )
                    action = detector.token_arrived(
                        rank,
                        payload.color,
                        worker.status is WorkerStatus.WAITING,
                    )
                    self._dispatch_token_action(rank, action, t)
                else:
                    handlers[rank - lo](t, payload)
        finally:
            self.processed = processed
        return None

    def _dispatch(self, entry) -> None:
        """Deliver one popped event (the non-inlined single-event path)."""
        t = entry[0]
        kind = entry[3]
        rank = entry[4]
        payload = entry[5]
        self.now = t
        self.processed += 1
        if self.processed > self._max_events:
            raise SimulationError(
                f"simulation exceeded {self._max_events} events "
                "(livelock or runaway configuration?)"
            )
        if kind == EVT_EXEC:
            self.workers[rank - self.lo].on_exec(t)
        elif getattr(payload, "tag", None) == TAG_TOKEN:
            worker = self.workers[rank - self.lo]
            if self.event_recorders is not None:
                self.event_recorders[rank].append(t, EV_TOKEN, payload.color)
            action = self.detector.token_arrived(
                rank, payload.color, worker.status is WorkerStatus.WAITING
            )
            self._dispatch_token_action(rank, action, t)
        else:
            self._handlers[rank - self.lo](t, payload)

    # ------------------------------------------------------------------
    # Termination plumbing
    # ------------------------------------------------------------------

    def _dispatch_token_action(
        self, src: int, action: TokenAction, when: float
    ) -> None:
        if action.terminated:
            if self.index != 0:
                raise TerminationError(
                    "termination detected off shard 0 (protocol bug)"
                )
            self._local_finish(when)
        elif action.sends:
            assert action.send_color is not None and action.send_to is not None
            self.send(src, action.send_to, Token(action.send_color), when)

    def _local_finish(self, when: float) -> None:
        """Shard 0 proved termination mid-event: finish locally, flag
        the coordinator to finish the other shards before they advance.

        Every pending event — including messages staged this very
        event — is dropped, rank 0 gets Finish synchronously
        (uncounted), and Finish events for the other ranks are keyed
        with pusher 0 continuing its counter, exactly the sequence a
        single queue's pushes produce.
        """
        dropped = len(self._msg_heap) + len(self._exec_heap)
        self._msg_heap.clear()
        self._exec_heap.clear()
        for box in self._outbox:
            dropped += len(box)
            box.clear()
        self.messages_dropped += dropped
        self._finishing = True
        c0 = self._rank_seq[0]
        self.finish_info = (when, c0)
        self.workers[0].on_message(when, Finish())
        values, row0 = self._values, self._row_fn(0).tolist()
        for rank in range(max(self.lo, 1), self.hi):
            arrival = when + values[row0[rank]]
            heapq.heappush(
                self._msg_heap,
                (arrival, 0, c0 + rank - 1, EVT_MSG, rank, Finish()),
            )
        self._rank_seq[0] = c0 + (self.nranks - 1)

    def finish_remote(self, when: float, c0: int) -> None:
        """Another shard's view of the finish broadcast."""
        dropped = len(self._msg_heap) + len(self._exec_heap)
        self._msg_heap.clear()
        self._exec_heap.clear()
        for box in self._outbox:
            dropped += len(box)
            box.clear()
        self.messages_dropped += dropped
        self._finishing = True
        values, row0 = self._values, self._row_fn(0).tolist()
        for rank in range(self.lo, self.hi):
            arrival = when + values[row0[rank]]
            heapq.heappush(
                self._msg_heap,
                (arrival, 0, c0 + rank - 1, EVT_MSG, rank, Finish()),
            )

    # ------------------------------------------------------------------
    # Post-run
    # ------------------------------------------------------------------

    def check_done(self) -> None:
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

    def snapshots(self) -> list[_WorkerSnapshot]:
        return [_WorkerSnapshot(w) for w in self.workers]


class _NicShard(_Shard):
    """The one shard of a run with NIC contention.

    Port state is job-global and order-sensitive, so the model is only
    sound when one shard owns every rank (DESIGN.md §5d) — which
    :class:`ShardedCluster` guarantees, and which is why ``send`` here
    has no cross-shard branch and indexes the row and sequence tables
    by rank (``lo == 0``).  A subclass rather than a branch in
    :meth:`_Shard.send`: the ledger's paired runs read the extra test
    as ~4% of the search-dominated 4096-rank workload.
    """

    def __init__(self, index, bounds, config, placement, *args):
        assert len(bounds) == 2, "NIC contention needs a single shard"
        super().__init__(index, bounds, config, placement, *args)
        self._nic = NicContention(
            placement.rank_nodes, config.nic_service_time
        )

    def send(self, src: int, dst: int, payload: object, when: float) -> None:
        if self._finishing:
            self.messages_dropped += 1
            return
        row = self._rows[src]
        if row is None:
            row = self._rows[src] = memoryview(self._row_fn(src))
        wire = self._values[row[dst]]
        if (
            getattr(payload, "tag", None) == TAG_STEAL_RESPONSE
            and payload.chunks is not None
        ):
            wire += payload.nodes * self._transfer_time_per_node
        # Inject at the source node's port, deliver at the destination
        # node's port (the DMA engines are shared both ways).
        nic = self._nic
        arrival = nic.deliver(dst, nic.inject(src, when) + wire)
        rs = self._rank_seq
        seq = rs[src]
        rs[src] = seq + 1
        if arrival < self.now:
            raise SimulationError(
                f"event scheduled at {arrival} before current time "
                f"{self.now}"
            )
        heapq.heappush(
            self._msg_heap, (arrival, src, seq, EVT_MSG, dst, payload)
        )


class ShardedCluster:
    """A simulated job: config -> placement -> shards -> ``run()``.

    The shard count is ``1`` for ``engine="sequential"`` and whenever
    NIC contention is on (port state admits no cross-shard lookahead),
    else ``config.shards`` (0 = :func:`auto_shards`); every count
    returns a bit-identical :class:`SimOutcome`.  :meth:`teardown`
    releases a finished in-process run to the reference counter.

    After a ``shard_workers > 1`` run, :attr:`parallel_stats` holds the
    transport/protocol accounting (rounds, round-trips, coordinator
    wait vs per-child busy time, bytes shipped) that
    ``repro.perf.sharded --parallel`` turns into the BENCH_5 Amdahl
    split.
    """

    def __init__(self, config: WorkStealingConfig, max_events: int | None = None):
        self.config = config
        assert not isinstance(config.allocation, str)
        self.placement = build_placement(
            config.nranks,
            config.allocation,
            latency_model=config.latency_model,
            topology_factory=config.topology_factory,
        )
        if config.engine == "sequential" or config.nic_service_time > 0:
            nshards = 1
        elif config.shards > 0:
            nshards = config.shards
        else:
            nshards = auto_shards(config.nranks)
        self.bounds, self.aligned = shard_bounds(
            config.nranks, nshards, self.placement.rank_nodes
        )
        self.nshards = len(self.bounds) - 1
        model = config.latency_model
        self.lookahead = (
            model.min_remote_latency()
            if self.aligned
            else model.min_any_latency()
        )
        if self.nshards > 1 and self.lookahead <= 0.0:
            raise ConfigurationError(
                f"latency model {model.name!r} reports no positive "
                "lookahead window; the sharded engine needs a lower "
                "bound > 0 on cross-shard latency "
                "(implement min_remote_latency/min_any_latency)"
            )
        self._max_events = (
            max_events if max_events is not None else DEFAULT_MAX_EVENTS
        )
        if self._max_events < 1:
            raise SimulationError(
                f"max_events must be >= 1, got {self._max_events}"
            )
        self.clock = ClockSkewModel(
            config.nranks, std=config.clock_skew_std, seed=config.seed
        )
        self.recorders = (
            [TraceRecorder() for _ in range(config.nranks)]
            if config.trace
            else None
        )
        self.event_recorders = (
            [
                EventRecorder(config.event_trace_capacity)
                for _ in range(config.nranks)
            ]
            if config.event_trace
            else None
        )
        requested = (
            config.shard_workers
            if config.shard_workers > 0
            else auto_shard_workers()
        )
        self._nworkers = max(1, min(requested, self.nshards))
        #: Transport/protocol accounting of the last multiprocess run.
        self.parallel_stats: dict | None = None
        self._shards: list[_Shard] = []

    # ------------------------------------------------------------------

    def run(self) -> SimOutcome:
        if self._nworkers > 1:
            return self._run_multiprocess()
        return self._run_inprocess()

    def teardown(self) -> None:
        """Break the reference cycles of a finished in-process run.

        ``Worker <-> StealProtocol`` and ``Worker -> shard -> workers``
        would otherwise keep every finished simulation (stacks,
        selector tables, latency rows) alive until a gen-2 collection,
        so back-to-back runs grow the heap.  Call once nothing reads
        the outcome's workers any more (``run_uts`` does, after
        ``RunResult.from_outcome``).
        """
        for shard in self._shards:
            for worker in shard.workers:
                worker.protocol.worker = None
            shard.workers = []
            shard._handlers = []
        self._shards = []

    # ------------------------------------------------------------------
    # In-process driver
    # ------------------------------------------------------------------

    def _run_inprocess(self) -> SimOutcome:
        config = self.config
        assert not isinstance(config.rng_backend, str)
        generator = TreeGenerator(config.tree, config.rng_backend)
        shard_class = _NicShard if config.nic_service_time > 0 else _Shard
        shards = [
            shard_class(
                i,
                self.bounds,
                config,
                self.placement,
                self.clock,
                generator,
                self._max_events,
                self.recorders,
                self.event_recorders,
            )
            for i in range(self.nshards)
        ]
        self._shards = shards
        for shard in shards:  # shard order == rank order
            shard.start_workers()
        s0 = shards[0]
        if self.nshards == 1:
            # One shard owns every rank: nothing to exchange, and the
            # termination event is trivially the global minimum.
            s0.process_window(_INF)
        else:
            self._run_windows(shards)

        workers: list[Worker] = []
        for shard in shards:
            workers.extend(shard.workers)
        return self._finalize(
            workers=workers,
            events_processed=sum(s.processed for s in shards),
            messages_dropped=sum(s.messages_dropped for s in shards),
            probes_started=s0.detector.probes_started,
            terminated=s0.detector.terminated,
            recorders=self.recorders,
            event_recorders=self.event_recorders,
        )

    def _run_windows(self, shards: list[_Shard]) -> None:
        """The lookahead-window loop of an in-process multi-shard run."""
        self._exchange(shards)
        s0 = shards[0]
        rest = shards[1:]
        lookahead = self.lookahead
        max_events = self._max_events
        node_budget = self.config.node_cap
        finished = False
        while True:
            gmin = None
            for shard in shards:
                key = shard.head_key()
                if key is not None and (gmin is None or key < gmin):
                    gmin = key
            if gmin is None:
                break
            if s0.head_key() == gmin and s0.head_is_candidate():
                s0.process_one()
                if s0.finish_info is not None and not finished:
                    finished = True
                    for shard in rest:
                        shard.finish_remote(*s0.finish_info)
                self._exchange(shards)
                continue
            horizon = gmin[0] + lookahead
            if USE_WINDOW_EXTENSION:
                # Cheap gate first: the full bound needs an exec-heap
                # scan, worthless when a message already pins E = gmin.
                quick = min(s.send_bound_quick() for s in shards)
                if quick > gmin[0]:
                    bound = min(s.send_bound() for s in shards)
                    if bound > gmin[0]:
                        horizon = bound + lookahead
            k0 = s0.process_window(horizon, stop_candidates=True)
            for shard in rest:
                shard.process_window(horizon, key_cap=k0)
            self._exchange(shards)
            if sum(s.processed for s in shards) > max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events "
                    "(livelock or runaway configuration?)"
                )
            if sum(s.nodes_total for s in shards) > node_budget:
                raise SimulationError(
                    f"run exceeded node cap {node_budget}"
                )

    @staticmethod
    def _exchange(shards: list[_Shard]) -> None:
        push = heapq.heappush
        for shard in shards:
            boxes = shard._outbox
            for target, box in enumerate(boxes):
                if box:
                    heap = shards[target]._msg_heap
                    for entry in box:
                        push(heap, entry)
                    box.clear()

    # ------------------------------------------------------------------
    # Multi-process driver
    # ------------------------------------------------------------------

    def _run_multiprocess(self) -> SimOutcome:
        nworkers = self._nworkers
        nshards = self.nshards
        # Contiguous shard blocks per child; child 0 always owns shard 0.
        assignment: list[list[int]] = [[] for _ in range(nworkers)]
        for s in range(nshards):
            assignment[(s * nworkers) // nshards].append(s)
        owner = {}
        for child, shard_list in enumerate(assignment):
            for s in shard_list:
                owner[s] = child

        t_wall0 = time.perf_counter()
        lookahead = self.lookahead
        use_overlap = USE_OVERLAP
        use_extension = USE_WINDOW_EXTENSION

        with _ChildPool(
            self.config, self.bounds, assignment, self._max_events
        ) as pool:
            channels = pool.channels

            #: Per target shard: ``(min_key, count, data)`` blobs taken
            #: from some child but not yet delivered.  ``data`` stays
            #: opaque (codec blob or raw entry list).
            inflight: list[list] = [[] for _ in range(nshards)]
            heads: dict[int, tuple | None] = {}
            send_bounds = [_INF] * nworkers
            processed_by = [0] * nworkers
            nodes_by = [0] * nworkers
            cand0 = False
            cand_bound = _INF
            dropped_inflight = 0
            finished = False
            rounds = 0
            trips = 0
            skipped_steps = 0

            def ingest(child: int, reply: dict) -> None:
                nonlocal cand0, cand_bound
                heads.update(reply["heads"])
                send_bounds[child] = reply["send_bound"]
                processed_by[child] = reply["processed"]
                nodes_by[child] = reply["nodes"]
                if child == 0:
                    cand0 = reply["cand"]
                    cb = reply["cand_bound"]
                    cand_bound = _INF if cb is None else cb
                for target, data, key, count in reply["out"]:
                    inflight[target].append((key, count, data))

            for ch in channels:
                ch.send(("start",))
            for child, ch in enumerate(channels):
                ingest(child, ch.recv())
            trips += 1

            while True:
                gmin = None
                for key in heads.values():
                    if key is not None and (gmin is None or key < gmin):
                        gmin = key
                inflight_min = _INF
                cand_in = _INF
                for target, box in enumerate(inflight):
                    for key, _count, _data in box:
                        if gmin is None or key < gmin:
                            gmin = key
                        if key[0] < inflight_min:
                            inflight_min = key[0]
                        if target == 0 and key[0] < cand_in:
                            cand_in = key[0]
                if gmin is None:
                    break
                rounds += 1

                if cand0 and heads.get(0) == gmin:
                    # Candidate at the global minimum: shard 0 alone
                    # processes it (keys are globally unique, so head
                    # equality proves nothing smaller is in flight).
                    channels[0].send(("one",))
                    reply = channels[0].recv()
                    ingest(0, reply)
                    trips += 1
                    if reply["finish"] is not None and not finished:
                        finished = True
                        when, c0 = reply["finish"]
                        others = list(range(1, nworkers))
                        for child in others:
                            channels[child].send(("finish", when, c0))
                        for child in others:
                            ingest(child, channels[child].recv())
                        if others:
                            trips += 1
                        # The broadcast atomically drops in-flight
                        # traffic too; account it exactly like the
                        # shard-local drops for sequential parity.
                        for box in inflight:
                            for _key, count, _data in box:
                                dropped_inflight += count
                            box.clear()
                    continue

                horizon = gmin[0] + lookahead
                if use_extension:
                    bound = inflight_min
                    for b in send_bounds:
                        if b < bound:
                            bound = b
                    if bound > gmin[0]:
                        horizon = bound + lookahead
                # A candidate can only arise inside this window from
                # shard 0's own state or traffic delivered to it this
                # round (cross-shard effects are next-round by CMB);
                # both are lower-bounded here.
                overlap = use_overlap and min(cand_bound, cand_in) >= horizon

                batches: list[list] = [[] for _ in range(nworkers)]
                for s in range(nshards):
                    box = inflight[s]
                    if box:
                        child = owner[s]
                        for _key, _count, data in box:
                            batches[child].append((s, data))
                        inflight[s] = []

                def needs_step(child: int) -> bool:
                    if batches[child]:
                        return True
                    for s in assignment[child]:
                        key = heads.get(s)
                        if key is not None and key[0] < horizon:
                            return True
                    return False

                if overlap:
                    targets = [
                        c for c in range(nworkers) if needs_step(c)
                    ]
                    for c in targets:
                        channels[c].send(("step", batches[c], horizon, None))
                    for c in targets:
                        ingest(c, channels[c].recv())
                    if targets:
                        trips += 1
                    skipped_steps += nworkers - len(targets)
                else:
                    k0 = None
                    if needs_step(0):
                        channels[0].send(
                            ("step", batches[0], horizon, _PROBE)
                        )
                        reply = channels[0].recv()
                        ingest(0, reply)
                        k0 = reply["k0"]
                        trips += 1
                    else:
                        skipped_steps += 1
                    rest = [
                        c for c in range(1, nworkers) if needs_step(c)
                    ]
                    for c in rest:
                        channels[c].send(("step", batches[c], horizon, k0))
                    for c in rest:
                        ingest(c, channels[c].recv())
                    if rest:
                        trips += 1
                    skipped_steps += nworkers - 1 - len(rest)

                if sum(processed_by) > self._max_events:
                    raise SimulationError(
                        f"simulation exceeded {self._max_events} events "
                        "(livelock or runaway configuration?)"
                    )
                if sum(nodes_by) > self.config.node_cap:
                    raise SimulationError(
                        f"run exceeded node cap {self.config.node_cap}"
                    )

            for ch in channels:
                ch.send(("done",))
            finals = [ch.recv() for ch in channels]
            pool.join()

            self.parallel_stats = {
                "transport": pool.transport,
                "workers": nworkers,
                "shards": nshards,
                "cpu_count": os.cpu_count(),
                "rounds": rounds,
                "round_trips": trips,
                "skipped_child_steps": skipped_steps,
                "wall_s": round(time.perf_counter() - t_wall0, 6),
                "coordinator_wait_s": round(
                    sum(ch.wait_s for ch in channels), 6
                ),
                "worker_busy_s": [f["busy_s"] for f in finals],
                "bytes_sent": sum(ch.bytes_sent for ch in channels),
                "bytes_recv": sum(ch.bytes_recv for ch in channels),
            }

            workers: list[_WorkerSnapshot] = []
            recorders: list[TraceRecorder] = []
            event_recorders: list[EventRecorder] = []
            events_processed = 0
            messages_dropped = dropped_inflight
            probes_started = 0
            terminated = False
            for final in finals:
                for shard_final in final["shards"]:
                    workers.extend(shard_final["workers"])
                    if shard_final["recorders"] is not None:
                        recorders.extend(shard_final["recorders"])
                    if shard_final["event_recorders"] is not None:
                        event_recorders.extend(shard_final["event_recorders"])
                    events_processed += shard_final["processed"]
                    messages_dropped += shard_final["dropped"]
                    if shard_final["index"] == 0:
                        probes_started = shard_final["probes_started"]
                        terminated = shard_final["terminated"]
            return self._finalize(
                workers=workers,
                events_processed=events_processed,
                messages_dropped=messages_dropped,
                probes_started=probes_started,
                terminated=terminated,
                recorders=recorders if self.config.trace else None,
                event_recorders=(
                    event_recorders if self.config.event_trace else None
                ),
            )

    # ------------------------------------------------------------------

    def _finalize(
        self,
        workers,
        events_processed,
        messages_dropped,
        probes_started,
        terminated,
        recorders,
        event_recorders,
    ) -> SimOutcome:
        if sum(w.nodes_processed for w in workers) > self.config.node_cap:
            raise SimulationError(
                f"run exceeded node cap {self.config.node_cap}"
            )
        if not terminated:
            raise TerminationError(
                "event queue drained before termination was detected"
            )
        for worker in workers:
            if worker.status is not WorkerStatus.DONE:
                raise TerminationError(
                    f"rank {worker.rank} never received Finish"
                )
            stack_empty = (
                worker.stack.is_empty
                if isinstance(worker, Worker)
                else worker.stack_empty
            )
            if not stack_empty:
                raise TerminationError(
                    f"rank {worker.rank} terminated holding nodes"
                )
        sent = sum(w.nodes_sent for w in workers)
        received = sum(w.nodes_received for w in workers)
        if sent != received:
            raise TerminationError(
                f"work lost in flight: {sent} nodes sent but "
                f"{received} received"
            )
        total_time = max(
            w.finish_time for w in workers if w.finish_time is not None
        )
        return SimOutcome(
            config=self.config,
            placement=self.placement,
            workers=workers,
            recorders=recorders,
            clock=self.clock,
            total_time=total_time,
            events_processed=events_processed,
            messages_dropped=messages_dropped,
            probes_started=probes_started,
            event_recorders=event_recorders,
        )


# ----------------------------------------------------------------------
# Transport plumbing of shard_workers > 1
# ----------------------------------------------------------------------


def _raise_if_error(reply) -> None:
    if isinstance(reply, dict) and "error" in reply:
        exc_type, message = reply["error"]
        raise exc_type(f"shard worker failed: {message}")


class _ShmSegment:
    """Single-writer scratch region backing one transfer direction.

    The coordinator protocol is strict request-reply, so the writer
    never touches the buffer again before the reader has consumed the
    previous message — one flat segment per direction is race-free
    without any ring bookkeeping.  Payloads that do not fit ride the
    pipe inline instead (see :func:`_pack_blobs`).
    """

    __slots__ = ("shm", "size", "_off")

    def __init__(self, shm):
        self.shm = shm
        self.size = shm.size
        self._off = 0

    def reset(self) -> None:
        self._off = 0

    def put(self, data) -> tuple[int, int] | None:
        n = len(data)
        off = self._off
        if off + n > self.size:
            return None
        self.shm.buf[off : off + n] = data
        self._off = off + n
        return (off, n)

    def get(self, off: int, n: int) -> bytes:
        return bytes(self.shm.buf[off : off + n])

    def close(self, unlink: bool) -> None:
        try:
            self.shm.close()
        except Exception:  # pragma: no cover - platform cleanup
            pass
        if unlink:
            try:
                self.shm.unlink()
            except Exception:  # pragma: no cover - already gone
                pass


def _pack_blobs(seg: _ShmSegment, entries: list, di: int) -> list:
    """Move byte payloads at tuple index ``di`` into ``seg``, replacing
    them with ``("shm", off, len)`` descriptors; oversized or non-byte
    payloads pass through untouched (pipe-inline fallback)."""
    seg.reset()
    packed = []
    for entry in entries:
        data = entry[di]
        if isinstance(data, (bytes, bytearray)):
            desc = seg.put(data)
            if desc is not None:
                entry = (
                    entry[:di] + (("shm",) + desc,) + entry[di + 1 :]
                )
        packed.append(entry)
    return packed


def _unpack_blobs(seg: _ShmSegment, entries: list, di: int) -> list:
    """Resolve ``("shm", off, len)`` descriptors back to bytes."""
    out = []
    for entry in entries:
        data = entry[di]
        if type(data) is tuple and data and data[0] == "shm":
            entry = (
                entry[:di] + (seg.get(data[1], data[2]),) + entry[di + 1 :]
            )
        out.append(entry)
    return out


class _ShardChannel:
    """One child process plus its pipe and optional shm segments.

    ``rx`` carries coordinator→child blob bytes, ``tx`` child→
    coordinator; control structures always ride the pipe.  The
    segments are created before the child starts (fork inherits the
    mapping, spawn re-attaches by name) and are owned — closed *and*
    unlinked — by the coordinator after the child is down.
    """

    def __init__(self, ctx, config, bounds, shard_list, max_events, use_shm):
        self.wait_s = 0.0
        self.bytes_sent = 0
        self.bytes_recv = 0
        self.rx_seg: _ShmSegment | None = None
        self.tx_seg: _ShmSegment | None = None
        if use_shm:
            try:
                from multiprocessing import shared_memory

                self.rx_seg = _ShmSegment(
                    shared_memory.SharedMemory(
                        create=True, size=SHM_SEGMENT_SIZE
                    )
                )
                self.tx_seg = _ShmSegment(
                    shared_memory.SharedMemory(
                        create=True, size=SHM_SEGMENT_SIZE
                    )
                )
            except Exception:  # pragma: no cover - platform dependent
                self._release_segments()
        try:
            parent_conn, child_conn = ctx.Pipe()
            self.conn = parent_conn
            self.proc = ctx.Process(
                target=_shard_worker_main,
                args=(
                    child_conn,
                    config,
                    bounds,
                    shard_list,
                    max_events,
                    self.rx_seg.shm if self.rx_seg is not None else None,
                    self.tx_seg.shm if self.tx_seg is not None else None,
                ),
                daemon=True,
            )
            self.proc.start()
            child_conn.close()
        except Exception:
            self._release_segments()
            raise

    @property
    def uses_shm(self) -> bool:
        return self.rx_seg is not None

    def send(self, command: tuple) -> None:
        if command[0] == "step":
            blobs = command[1]
            for entry in blobs:
                data = entry[1]
                if isinstance(data, (bytes, bytearray)):
                    self.bytes_sent += len(data)
            if self.rx_seg is not None and blobs:
                command = (
                    "step",
                    _pack_blobs(self.rx_seg, blobs, 1),
                    command[2],
                    command[3],
                )
        self.conn.send(command)

    def recv(self) -> dict:
        t0 = time.perf_counter()
        reply = self.conn.recv()
        self.wait_s += time.perf_counter() - t0
        _raise_if_error(reply)
        out = reply.get("out")
        if out:
            if self.tx_seg is not None:
                out = _unpack_blobs(self.tx_seg, out, 1)
                reply["out"] = out
            for entry in out:
                data = entry[1]
                if isinstance(data, (bytes, bytearray)):
                    self.bytes_recv += len(data)
        return reply

    def shutdown(self) -> None:
        """Tear the child down unconditionally: close the pipe (EOF
        makes a healthy child exit), then join → terminate → kill."""
        try:
            self.conn.close()
        except Exception:  # pragma: no cover - already closed
            pass
        proc = self.proc
        proc.join(timeout=10)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=10)
        if proc.is_alive():  # pragma: no cover - last resort
            proc.kill()
            proc.join(timeout=10)
        self._release_segments()

    def _release_segments(self) -> None:
        for seg in (self.rx_seg, self.tx_seg):
            if seg is not None:
                seg.close(unlink=True)
        self.rx_seg = None
        self.tx_seg = None


class _ChildPool:
    """Owns the shard-hosting children for one run (context manager).

    Guarantees no child outlives the coordinator: on exit — normal or
    error — every channel is shut down with escalation (the previous
    driver's ``proc.join(timeout=30)`` ignored expiry and error paths
    could strand children).
    """

    def __init__(self, config, bounds, assignment, max_events):
        want_shm = config.shard_transport == "shm"
        self.channels: list[_ShardChannel] = []
        import multiprocessing

        ctx = multiprocessing.get_context()
        try:
            for shard_list in assignment:
                self.channels.append(
                    _ShardChannel(
                        ctx, config, bounds, shard_list, max_events,
                        use_shm=want_shm,
                    )
                )
        except Exception:
            self.close()
            raise
        if want_shm and not all(ch.uses_shm for ch in self.channels):
            self.transport = "pipe(shm-unavailable)"
        else:
            self.transport = config.shard_transport

    def __enter__(self) -> _ChildPool:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def join(self) -> None:
        """Graceful wait after ``done`` replies (children exit on EOF
        or on having served ``done``); ``close`` still escalates."""
        for ch in self.channels:
            try:
                ch.conn.close()
            except Exception:  # pragma: no cover - already closed
                pass
            ch.proc.join(timeout=10)

    def close(self) -> None:
        for ch in self.channels:
            ch.shutdown()


# ----------------------------------------------------------------------
# Child-process side of shard_workers > 1
# ----------------------------------------------------------------------


def _shard_worker_main(
    conn,
    config: WorkStealingConfig,
    bounds,
    shard_indices,
    max_events,
    rx_shm=None,
    tx_shm=None,
) -> None:
    """Command loop of one shard-hosting process.

    Rebuilds placement, clock and tree generator deterministically from
    the config (nothing simulation-relevant crosses the pipe except
    staged event entries), then serves the coordinator's fused ``step``
    protocol until ``done`` or pipe EOF.  Module flags (burst,
    extension, codec) are inherited from the parent under the fork
    start method, which is what lets the differential tests pin them.
    """
    from repro.sim.shardcodec import decode_entries

    busy = 0.0
    rx_seg = _ShmSegment(rx_shm) if rx_shm is not None else None
    tx_seg = _ShmSegment(tx_shm) if tx_shm is not None else None
    try:
        placement = build_placement(
            config.nranks,
            config.allocation,
            latency_model=config.latency_model,
            topology_factory=config.topology_factory,
        )
        clock = ClockSkewModel(
            config.nranks, std=config.clock_skew_std, seed=config.seed
        )
        generator = TreeGenerator(config.tree, config.rng_backend)
        recorders = (
            [TraceRecorder() for _ in range(config.nranks)]
            if config.trace
            else None
        )
        event_recorders = (
            [
                EventRecorder(config.event_trace_capacity)
                for _ in range(config.nranks)
            ]
            if config.event_trace
            else None
        )
        shards = {
            i: _Shard(
                i,
                list(bounds),
                config,
                placement,
                clock,
                generator,
                max_events,
                recorders,
                event_recorders,
            )
            for i in shard_indices
        }
        has_zero = 0 in shards
        encode = WIRE_CODEC

        def status(extra=None):
            out = []
            for shard in shards.values():
                out.extend(shard.take_outboxes(encode))
            if tx_seg is not None and out:
                out = _pack_blobs(tx_seg, out, 1)
            reply = {
                "heads": {i: s.head_key() for i, s in shards.items()},
                "cand": bool(has_zero and shards[0].head_is_candidate()),
                "out": out,
                "finish": shards[0].finish_info if has_zero else None,
                "processed": sum(s.processed for s in shards.values()),
                "nodes": sum(s.nodes_total for s in shards.values()),
                "send_bound": min(
                    s.send_bound() for s in shards.values()
                ),
                # Candidates can only arise from shard 0's own state
                # (cross-shard effects are next-round), and its send
                # bound is <= every message head and every rank-0 exec
                # bound — so it lower-bounds candidate occurrence too.
                "cand_bound": (
                    shards[0].send_bound() if has_zero else None
                ),
            }
            if extra:
                reply.update(extra)
            return reply

        while True:
            try:
                command = conn.recv()
            except (EOFError, OSError):
                return
            t_cmd = time.perf_counter()
            op = command[0]
            if op == "start":
                for i in sorted(shards):
                    shards[i].start_workers()
                reply = status()
            elif op == "step":
                blobs, horizon, cap = command[1], command[2], command[3]
                for idx, data in blobs:
                    if (
                        type(data) is tuple
                        and data
                        and data[0] == "shm"
                    ):
                        data = rx_seg.get(data[1], data[2])
                    if isinstance(data, (bytes, bytearray)):
                        shards[idx].absorb(decode_entries(data))
                    else:
                        shards[idx].absorb(data)
                if cap == _PROBE or (cap is None and has_zero):
                    k0 = shards[0].process_window(
                        horizon, stop_candidates=True
                    )
                    if cap is None and k0 is not None:
                        raise SimulationError(
                            "termination candidate inside an overlapped "
                            f"window (bound violated at {k0!r})"
                        )
                    for i in sorted(shards):
                        if i != 0:
                            shards[i].process_window(horizon, key_cap=k0)
                    reply = status({"k0": k0})
                else:
                    for i in sorted(shards):
                        shards[i].process_window(horizon, key_cap=cap)
                    reply = status({"k0": None})
            elif op == "one":
                shards[0].process_one()
                if shards[0].finish_info is not None:
                    when, c0 = shards[0].finish_info
                    for i, shard in shards.items():
                        if i != 0 and not shard._finishing:
                            shard.finish_remote(when, c0)
                reply = status()
            elif op == "finish":
                when, c0 = command[1], command[2]
                for shard in shards.values():
                    if not shard._finishing:
                        shard.finish_remote(when, c0)
                reply = status()
            elif op == "done":
                final = {"shards": []}
                for i in sorted(shards):
                    shard = shards[i]
                    shard.check_done()
                    final["shards"].append(
                        {
                            "index": i,
                            "workers": shard.snapshots(),
                            "recorders": (
                                recorders[shard.lo : shard.hi]
                                if recorders is not None
                                else None
                            ),
                            "event_recorders": (
                                event_recorders[shard.lo : shard.hi]
                                if event_recorders is not None
                                else None
                            ),
                            "processed": shard.processed,
                            "dropped": shard.messages_dropped,
                            "probes_started": shard.detector.probes_started,
                            "terminated": shard.detector.terminated,
                        }
                    )
                busy += time.perf_counter() - t_cmd
                final["busy_s"] = round(busy, 6)
                conn.send(final)
                return
            else:  # pragma: no cover - protocol guard
                conn.send({"error": (SimulationError, f"bad op {op!r}")})
                return
            busy += time.perf_counter() - t_cmd
            conn.send(reply)
    except Exception as exc:  # pragma: no cover - shipped to parent
        try:
            conn.send({"error": (type(exc), str(exc))})
        except Exception:
            pass
    finally:
        for seg in (rx_seg, tx_seg):
            if seg is not None:
                seg.close(unlink=False)
