"""One simulated rank: the paper's Algorithm 1 as one state machine.

Faithful port of the reference ``mpi_workstealing.c`` behaviour the
paper studies (§II-A):

* work items are tree nodes managed in fixed-size chunks; the first
  chunk is private, thieves take whole chunks from the bottom;
* between every ``poll_interval`` node expansions the rank polls for
  messages (``on_exec``, one quantum per EXEC event); pending steal
  requests are answered there — the victim "stop[s] working on its
  queue to package work and send it to the stealer" (no work-first
  principle);
* an empty stack starts a *work-discovery session*: the victim
  selector proposes victims one at a time, one outstanding request per
  thief, until work arrives or the termination ring fires.

:class:`Worker` is the whole rank — stack, quantum expansion, victim
draws, every protocol message, the idle log and the steal counters
results read.  The idle log is the one record of a rank's phase
transitions: one ``(start, end, attempts)`` period per work-discovery
session, in true time.  The result layer derives the activity trace,
the session statistics and the search times from it
(:meth:`repro.ws.results.RunResult.from_outcome`).

Messages are not objects: the tag says what ``body`` is and ``src``,
the sender, is the thief of a request and the victim of a response
(:mod:`repro.protocol.messages`).  For a plain rank the engine's loop
(:meth:`repro.sim.cluster.Cluster.run`) runs the three events a run is
mostly made of itself — a quantum, a request at an idle rank, a deny
back at the thief — step for step as ``on_exec`` and ``on_message``
do here.  These methods stay the reference: the test oracle runs them
for every event, and the engine for a subclass, a traced rank, a
protocol feature and every other message.

A worker never touches the event queue or other workers directly; it
talks to the cluster through a small transport interface
(:class:`Transport`), which keeps the state machine unit-testable.

Protocol *features* are branches of the one state machine, configured
by an immutable :class:`ProtocolPlan` shared by every rank of a run:
lifelines (quiesce-and-wait work pushes), steal-request forwarding
(TTL-bounded relays carrying a visited set, after Project Picasso) and
locality regions (intra-region steals first, after Suksompong et al.,
arXiv:1804.04773).

The lifeline axis is the scheme of Saraswat et al., *Lifeline-based
global load balancing* (PPoPP 2011), which the paper's related-work
section contrasts with its own victim selection: after
``lifeline_threshold`` consecutive failed steals an idle rank
*quiesces* — it arms its partners (:mod:`repro.protocol.graphs`) with
a ``TAG_LIFELINE_REGISTER`` and stops sending requests; a partner with
stealable work at a poll boundary pushes a chunk allotment to each
armed waiter; a woken rank disarms the rest
(``TAG_LIFELINE_DEREGISTER``).  Quiescent ranks are idle for the
termination ring and pushes blacken the sender like steal responses.

Bit-identity (the contract the differential suite enforces): every
decision here is rank-local and driven by rank-local state, so the
engine and the test oracle, which deliver each rank's events in the
same order by the global event-key design, produce identical float
sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Protocol

import numpy as np

from repro.core import registry
from repro.core.steal_policy import StealPolicy
from repro.core.victim import VictimSelector, _DrawStream
from repro.errors import SimulationError
from repro.protocol import graphs  # noqa: F401  (registers the lifeline graphs)
from repro.protocol.messages import (
    TAG_FINISH,
    TAG_LIFELINE_DEREGISTER,
    TAG_LIFELINE_REGISTER,
    TAG_STEAL_FORWARD,
    TAG_STEAL_REQUEST,
    TAG_STEAL_RESPONSE,
    StealForward,
)
from repro.protocol.regions import RegionMap
from repro.trace.events import (
    EV_DENY,
    EV_FINISH,
    EV_FORWARD_SERVE,
    EV_LIFELINE_PUSH,
    EV_LIFELINE_QUIESCE,
    EV_LIFELINE_WAKE,
    EV_PUSH_RECV,
    EV_SERVE,
    EV_STEAL_FAIL,
    EV_STEAL_FORWARD,
    EV_STEAL_OK,
    EV_STEAL_SENT,
    EV_VICTIM_DRAW,
)
from repro.uts.stack import ChunkedStack
from repro.uts.tree import TreeGenerator, TreeTable

__all__ = ["ProtocolPlan", "Transport", "Worker", "WorkerStatus"]

#: Seed-stream constant separating the per-rank region-draw RNG from
#: the selector streams (``SeedSequence([seed, rank])``).
_REGION_STREAM = 0x5247  # "RG"

#: Selector draws a relaying rank attempts when picking a forward
#: target outside its region before giving up and denying.
_FORWARD_TRIES = 4


@dataclass(frozen=True)
class ProtocolPlan:
    """Immutable per-run protocol configuration, shared by all ranks.

    Built once per run by :func:`repro.protocol.factory.build_plan`
    (or directly in unit tests); every field is physics — the
    corresponding config knobs participate in fingerprints.
    """

    #: Relay denied steal requests toward work instead of failing.
    forward: bool = False
    #: Maximum relay hops per request chain (the first victim spends
    #: none; each relay consumes one).
    forward_ttl: int = 2
    #: Locality regions (``None`` disables the localized discipline).
    regions: RegionMap | None = None
    #: Victim draws per session aimed intra-region before the
    #: configured selector takes over.
    region_attempts: int = 2
    #: Lifeline partners per rank; 0 disables the lifeline scheme.
    lifeline_count: int = 0
    #: Consecutive failed steals before a rank quiesces.
    lifeline_threshold: int = 8
    #: Registered lifeline-graph builder name.
    lifeline_graph: str = "hypercube"
    #: Run seed (region draws).
    seed: int = 0

    @property
    def lifelines(self) -> bool:
        return self.lifeline_count > 0

    def partners_for(self, rank: int, nranks: int) -> list[int]:
        """Lifeline partners of ``rank`` under the configured graph."""
        if self.lifeline_count <= 0:
            return []
        builder = registry.resolve("lifeline_graph", self.lifeline_graph)
        return builder(rank, nranks, self.lifeline_count, regions=self.regions)


#: Plan used when a worker is constructed without one (unit tests,
#: single-purpose harnesses): baseline request/response stealing.
_DEFAULT_PLAN = ProtocolPlan()


class WorkerStatus(IntEnum):
    """Lifecycle of a rank."""

    RUNNING = 0  # has work; an EXEC event is outstanding
    WAITING = 1  # empty stack; one steal request outstanding
    DONE = 2  # received the termination broadcast


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


class Worker:
    """One simulated MPI rank: execution and the steal lifecycle."""

    __slots__ = (
        "rank",
        "nranks",
        "generator",
        "selector",
        "_notify",
        "policy",
        "transport",
        "poll_interval",
        "per_node_time",
        "steal_service_time",
        "stack",
        "status",
        "events",
        "nodes_processed",
        "finish_time",
        "pending",
        "_nodes",
        "_chunk_size",
        "_expand",
        "_schedule_exec",
        # The idle log.
        "idle_starts",
        "idle_ends",
        "idle_attempts",
        "_session_attempts",
        # Thief-side counters.
        "steal_requests_sent",
        "consecutive_failed_steals",
        "_escalate_after",
        "failed_steals",
        "successful_steals",
        "chunks_received",
        "nodes_received",
        # Victim-side counters.
        "requests_served",
        "requests_denied",
        "requests_forwarded",
        "forwards_served",
        "nodes_sent",
        "service_time",
        # Forwarding.
        "_forward",
        "_forward_ttl",
        # Locality regions.
        "_region_peers",
        "_region_attempts",
        "_region_draw",
        # Lifelines.
        "_lifelines",
        "lifeline_threshold",
        "partners",
        "waiters",
        "_quiescent",
        "lifeline_pushes",
        "lifeline_wakeups",
        "quiesce_episodes",
    )

    def __init__(
        self,
        rank: int,
        nranks: int,
        generator: TreeTable | TreeGenerator,
        selector: VictimSelector | None,
        policy: StealPolicy,
        transport: Transport,
        chunk_size: int,
        poll_interval: int,
        per_node_time: float,
        steal_service_time: float,
        events: list[tuple[float, int, int, int]] | None = None,
        plan: ProtocolPlan | None = None,
    ):
        if nranks > 1 and selector is None:
            raise SimulationError("multi-rank worker needs a victim selector")
        if plan is None:
            plan = _DEFAULT_PLAN
        self.rank = rank
        self.nranks = nranks
        self.generator = generator
        self.selector = selector
        #: The selector's feedback hook, or None when it is the
        #: inherited no-op (every static strategy): a failed steal then
        #: pays no call for it.
        self._notify = (
            None
            if selector is None
            or type(selector).notify is VictimSelector.notify
            else selector.notify
        )
        self.policy = policy
        self.transport = transport
        self.poll_interval = poll_interval
        self.per_node_time = per_node_time
        self.steal_service_time = steal_service_time

        self.stack = ChunkedStack(chunk_size)
        self.status = WorkerStatus.RUNNING  # resolved properly in start()
        # Structured steal-event list (repro.trace) of ``(time, etype,
        # a, b)`` tuples; None when event tracing is off, so every hook
        # is one load + one None test on steal edges only — the EXEC
        # expansion path never sees it.
        self.events = events

        self.nodes_processed = 0
        self.finish_time: float | None = None

        #: Queued steal requests/forwards as ``(tag, src, body)``,
        #: answered at poll boundaries.
        self.pending: list = []

        # Caches for the per-quantum path.  The stack's node list, the
        # generator and the transport are fixed for the worker's
        # lifetime; ``send`` is deliberately NOT cached (tests patch it).
        self._nodes = self.stack.nodes
        self._chunk_size = chunk_size
        self._expand = generator.expand
        self._schedule_exec = transport.schedule_exec

        #: The idle log, one entry per work-discovery session in true
        #: time: opened by ``_go_idle``, closed by ``_on_work`` or
        #: ``on_finish`` (so a rank's last period ends at Finish).
        self.idle_starts: list[float] = []
        self.idle_ends: list[float] = []
        self.idle_attempts: list[int] = []
        #: Steal requests sent in the open period.
        self._session_attempts = 0

        self.steal_requests_sent = 0
        self.consecutive_failed_steals = 0
        self._escalate_after = getattr(policy, "escalate_after", None)
        self.failed_steals = 0
        self.successful_steals = 0
        self.chunks_received = 0
        self.nodes_received = 0

        self.requests_served = 0
        self.requests_denied = 0
        self.requests_forwarded = 0
        self.forwards_served = 0
        self.nodes_sent = 0
        self.service_time = 0.0

        self._forward = plan.forward
        self._forward_ttl = plan.forward_ttl

        regions = plan.regions
        if regions is not None and nranks > 1:
            peers = regions.peers(rank)
            self._region_peers = peers if peers else None
            seq = np.random.SeedSequence([plan.seed, rank, _REGION_STREAM])
            self._region_draw = (
                _DrawStream(np.random.default_rng(seq)) if peers else None
            )
        else:
            self._region_peers = None
            self._region_draw = None
        self._region_attempts = plan.region_attempts

        self._lifelines = plan.lifelines
        self.lifeline_threshold = plan.lifeline_threshold
        self.partners = plan.partners_for(rank, nranks)
        self.waiters: list[int] = []
        self._quiescent = False
        self.lifeline_pushes = 0
        self.lifeline_wakeups = 0
        self.quiesce_episodes = 0

    # ------------------------------------------------------------------
    # Event handlers (called by the cluster)
    # ------------------------------------------------------------------

    def start(self, now: float) -> None:
        """Initialise at simulation start: rank 0 holds the root."""
        if self.rank == 0:
            self._nodes.append(self.generator.root())
            self.status = WorkerStatus.RUNNING
            self.transport.schedule_exec(self.rank, now)
        else:
            self._go_idle(now)

    def on_exec(self, now: float) -> None:
        """Poll boundary: answer queued steals, then work or search."""
        if self.status is not WorkerStatus.RUNNING:
            raise SimulationError(
                f"rank {self.rank}: EXEC while {self.status.name}"
            )
        # ``serve_pending`` is a no-op with nothing queued and no armed
        # lifeline waiter (only lifeline ranks ever have one).
        if self.pending or self.waiters:
            t = self.serve_pending(now)
        else:
            t = now
        nodes = self._nodes
        if nodes:
            # One quantum: pop, expand, push.  When the top chunk holds
            # more than the quantum the pop is a slice; otherwise it
            # drains chunks in the stack's order (``ChunkedStack.pop``).
            n = self.poll_interval
            if (len(nodes) - 1) % self._chunk_size >= n:
                popped = nodes[-n:]
                del nodes[-n:]
            else:
                popped = self.stack.pop(n)
                n = len(popped)
            nodes += self._expand(popped)
            self.nodes_processed += n
            self._schedule_exec(self.rank, t + n * self.per_node_time)
        else:
            self._go_idle(t)

    def on_message(self, now: float, tag: int, src: int, body) -> None:
        """``(tag, body)`` from ``src`` arrived at (true) time ``now``."""
        status = self.status
        if status is WorkerStatus.DONE:
            return  # post-termination stragglers are dropped
        if tag == TAG_STEAL_RESPONSE and body is None:
            # A failed steal.  With lifelines a deny may legitimately
            # land while RUNNING: a stale push (partner served before
            # our deregister arrived) can wake the thief while a real
            # request is still in flight; the chain continues as if the
            # thief were still hunting.  Without lifelines any
            # non-WAITING response is a protocol violation.
            if status is not WorkerStatus.WAITING and not self._lifelines:
                raise SimulationError(
                    f"rank {self.rank}: steal response while {status.name}"
                )
            self.failed_steals += 1
            self.consecutive_failed_steals += 1
            if self.events is not None:
                self.events.append((now, EV_STEAL_FAIL, src, 0))
            if self._notify is not None:
                self._notify(src, False)
            if (
                self._lifelines
                and self.consecutive_failed_steals >= self.lifeline_threshold
            ):
                if not self._quiescent:
                    self._quiesce(now)
                # Quiescent: no further requests; wait for a push or
                # Finish.
            else:
                self._send_steal_request(now)
        elif tag == TAG_STEAL_REQUEST:
            if status is WorkerStatus.RUNNING:
                self.pending.append((tag, src, body))
            else:
                self._relay_or_deny(
                    now, src, body, self._forward_ttl, (src, self.rank)
                )
        elif tag == TAG_STEAL_RESPONSE:
            self._on_work(now, src, body, status)
        elif tag == TAG_STEAL_FORWARD:
            if status is WorkerStatus.RUNNING:
                self.pending.append((tag, src, body))
            else:
                self._relay_or_deny(
                    now, body.thief, body.escalated, body.ttl, body.visited
                )
        elif tag == TAG_FINISH:
            self.on_finish(now)
        elif self._lifelines and tag == TAG_LIFELINE_REGISTER:
            if src not in self.waiters:
                self.waiters.append(src)
        elif self._lifelines and tag == TAG_LIFELINE_DEREGISTER:
            if src in self.waiters:
                self.waiters.remove(src)
        else:
            raise SimulationError(
                f"rank {self.rank}: unexpected message tag {tag!r} "
                f"from rank {src} ({body!r})"
            )

    def serve_pending(self, now: float) -> float:
        """Answer queued steal requests; returns the advanced local time.

        Queued *forwards* are served exactly like requests — the
        response (and its transfer cost) flows straight to the
        originator — and are relayed onward (TTL permitting) when the
        stack has nothing stealable.  After the queue drains, a
        lifeline worker pushes work to armed waiters.
        """
        t = now
        stack = self.stack
        pending = self.pending
        if pending:
            ev = self.events
            policy = self.policy
            for tag, src, body in pending:
                if tag == TAG_STEAL_FORWARD:
                    thief, escalated = body.thief, body.escalated
                else:
                    thief, escalated = src, body
                stealable = stack.stealable_chunks
                take = (
                    policy.chunks_for_request(stealable, escalated)
                    if stealable
                    else 0
                )
                if take > 0:
                    # Packaging work costs the victim compute time.
                    t += self.steal_service_time
                    self.service_time += self.steal_service_time
                    body = stack.steal_chunks(take)
                    nodes = len(body)
                    self.requests_served += 1
                    self.nodes_sent += nodes
                    if tag == TAG_STEAL_FORWARD:
                        self.forwards_served += 1
                        if ev is not None:
                            ev.append((t, EV_FORWARD_SERVE, thief, nodes))
                    elif ev is not None:
                        ev.append((t, EV_SERVE, thief, nodes))
                    self.transport.work_sent(self.rank)
                    self.transport.send(
                        self.rank, thief, TAG_STEAL_RESPONSE, body, t
                    )
                elif tag == TAG_STEAL_FORWARD:
                    self._relay_or_deny(
                        t, thief, escalated, body.ttl, body.visited
                    )
                else:
                    self._relay_or_deny(
                        t, thief, escalated, self._forward_ttl,
                        (thief, self.rank),
                    )
            pending.clear()
        if self._lifelines:
            while self.waiters and stack.stealable_chunks > 0:
                # A quiesced waiter is starving by definition: grant it
                # the escalated amount (a no-op for static policies).
                # A waiter the policy grants nothing stays armed.
                take = self.policy.chunks_for_request(
                    stack.stealable_chunks, escalated=True
                )
                if take == 0:
                    break
                thief = self.waiters.pop(0)
                t += self.steal_service_time
                self.service_time += self.steal_service_time
                body = stack.steal_chunks(take)
                nodes = len(body)
                self.nodes_sent += nodes
                self.lifeline_pushes += 1
                if self.events is not None:
                    self.events.append((t, EV_LIFELINE_PUSH, thief, nodes))
                self.transport.work_sent(self.rank)
                self.transport.send(
                    self.rank, thief, TAG_STEAL_RESPONSE, body, t
                )
        return t

    def on_finish(self, now: float) -> None:
        if self.status is WorkerStatus.RUNNING or not self.stack.is_empty:
            raise SimulationError(
                f"rank {self.rank}: Finish while holding work "
                "(termination detected too early)"
            )
        self._close_session(now)
        if self.events is not None:
            self.events.append((now, EV_FINISH, 0, 0))
        self.status = WorkerStatus.DONE
        self.finish_time = now

    # ------------------------------------------------------------------
    # Thief side
    # ------------------------------------------------------------------

    def _go_idle(self, t: float) -> None:
        """Stack exhausted: open an idle period, start a work-discovery
        session."""
        self.consecutive_failed_steals = 0
        self.status = WorkerStatus.WAITING
        self.idle_starts.append(t)
        self._session_attempts = 0
        self.transport.rank_became_idle(self.rank, t)
        if self.nranks > 1:
            self._send_steal_request(t)
        # nranks == 1: termination fires via rank_became_idle.

    def _draw_victim(self) -> int:
        """Propose the next victim of the current session.

        With locality regions, the first ``region_attempts`` draws of a
        session are uniform over the rank's region peers (the localized
        discipline: steal back owned work first); afterwards — or
        without regions — the configured selector decides.
        """
        if (
            self._region_peers is not None
            and self._session_attempts < self._region_attempts
        ):
            peers = self._region_peers
            return peers[self._region_draw.integers(len(peers))]
        assert self.selector is not None
        return self.selector.next_victim()

    def _send_steal_request(self, t: float) -> None:
        victim = self._draw_victim()
        self.steal_requests_sent += 1
        self._session_attempts += 1
        escalated = (
            self._escalate_after is not None
            and self.consecutive_failed_steals >= self._escalate_after
        )
        ev = self.events
        if ev is not None:
            ev.append((t, EV_VICTIM_DRAW, victim, self._session_attempts))
            ev.append((t, EV_STEAL_SENT, victim, int(escalated)))
        self.transport.send(self.rank, victim, TAG_STEAL_REQUEST, escalated, t)

    def _on_work(self, now: float, victim: int, body: list, status) -> None:
        """A response carrying work (a served steal or a lifeline push):
        ``body`` is whole chunks of nodes, bottom first."""
        if status is not WorkerStatus.WAITING:
            if not self._lifelines:
                raise SimulationError(
                    f"rank {self.rank}: steal response while {status.name}"
                )
            # A lifeline push raced our own recovery: merge the work.
            nodes = self.stack.receive_chunks(body)
            self.chunks_received += nodes // self._chunk_size
            self.nodes_received += nodes
            if self.events is not None:
                self.events.append((now, EV_PUSH_RECV, victim, nodes))
            return
        if self._quiescent:
            self._disarm(now)
            self.lifeline_wakeups += 1
            if self.events is not None:
                self.events.append((now, EV_LIFELINE_WAKE, victim, 0))
        received = self.stack.receive_chunks(body)
        self.successful_steals += 1
        self.chunks_received += received // self._chunk_size
        self.nodes_received += received
        if self.events is not None:
            self.events.append((now, EV_STEAL_OK, victim, received))
        if self._notify is not None:
            self._notify(victim, True)
        self.consecutive_failed_steals = 0
        self._close_session(now)
        self.status = WorkerStatus.RUNNING
        self.transport.schedule_exec(self.rank, now)

    def _close_session(self, end: float) -> None:
        self.idle_ends.append(end)
        self.idle_attempts.append(self._session_attempts)
        self._session_attempts = 0

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------

    def _relay_or_deny(
        self,
        now: float,
        thief: int,
        escalated: bool,
        ttl: int,
        visited: tuple[int, ...],
    ) -> None:
        """This rank cannot serve the chain: relay it onward or end it.

        Relays are control traffic — no service time, no termination
        blackening (exactly like the deny they replace); only the
        eventual serve moves work.  The terminal deny replies to the
        *originator*, which closes the chain: every chain produces
        exactly one response, preserving the
        one-outstanding-request invariant the trace analysis and the
        termination argument rely on.
        """
        if self._forward and ttl > 0:
            target = self._forward_target(visited)
            if target is not None:
                self.requests_forwarded += 1
                if self.events is not None:
                    self.events.append((now, EV_STEAL_FORWARD, target, thief))
                self.transport.send(
                    self.rank,
                    target,
                    TAG_STEAL_FORWARD,
                    StealForward(thief, escalated, ttl - 1, visited + (target,)),
                    now,
                )
                return
        self.requests_denied += 1
        if self.events is not None:
            self.events.append((now, EV_DENY, thief, 0))
        self.transport.send(self.rank, thief, TAG_STEAL_RESPONSE, None, now)

    def _forward_target(self, visited: tuple[int, ...]) -> int | None:
        """Pick the next hop: unvisited region peers first, then the
        relaying rank's own selector (bounded draws), else give up."""
        peers = self._region_peers
        if peers is not None:
            n = len(peers)
            start = self.requests_forwarded % n
            for i in range(n):
                cand = peers[(start + i) % n]
                if cand not in visited:
                    return cand
        selector = self.selector
        if selector is not None:
            for _ in range(_FORWARD_TRIES):
                cand = selector.next_victim()
                if cand not in visited:
                    return cand
        return None

    # ------------------------------------------------------------------
    # Lifelines
    # ------------------------------------------------------------------

    def _quiesce(self, now: float) -> None:
        self._quiescent = True
        self.quiesce_episodes += 1
        if self.events is not None:
            self.events.append((now, EV_LIFELINE_QUIESCE, 0, 0))
        for partner in self.partners:
            self.transport.send(
                self.rank, partner, TAG_LIFELINE_REGISTER, None, now
            )

    def _disarm(self, now: float) -> None:
        self._quiescent = False
        self.consecutive_failed_steals = 0
        for partner in self.partners:
            self.transport.send(
                self.rank, partner, TAG_LIFELINE_DEREGISTER, None, now
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Worker(rank={self.rank}, status={self.status.name}, "
            f"stack={self.stack.size}, processed={self.nodes_processed})"
        )
