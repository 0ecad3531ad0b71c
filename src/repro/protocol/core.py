"""The steal-protocol state machine, extracted from the worker.

:class:`StealProtocol` owns the complete steal lifecycle of one rank —
the idle transition, victim draws, request/response/forward/push
message handling, work-discovery session accounting and the
termination interaction — behind a four-method surface the execution
core (:class:`repro.sim.worker.Worker`) calls:

``on_idle(t)``
    The worker's stack drained; start a work-discovery session.
``on_message(now, tag, src, body)``
    A protocol message arrived (the worker dispatches *every* message
    here).  Messages are not objects: the tag says what ``body`` is and
    ``src``, the sender, is the thief of a request and the victim of a
    response (:mod:`repro.protocol.messages`).  The two halves of a
    failed steal — request at an idle rank, deny back at the thief —
    are the first two branches and do their work in that one frame.
``serve_pending(now) -> t``
    Poll boundary: answer queued steal requests (and push to armed
    lifelines), returning the advanced local time.
``protocol.pending`` / ``protocol.plain_serve``
    The queued-request list (shared object, mutated in place) and the
    static "serving is a no-op when the queue is empty" flag:
    ``Worker.on_exec`` skips the ``serve_pending`` call when the flag
    is set and the list is empty.

The split is what makes protocol *features* compositional instead of
subclass forks: lifelines (quiesce-and-wait work pushes), steal-request
forwarding (TTL-bounded relays carrying a visited set, after Project
Picasso) and locality regions (intra-region steals first, after
Suksompong et al., arXiv:1804.04773) are all branches inside one state
machine, configured by an immutable :class:`ProtocolPlan` shared by
every rank of a run.

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

Bit-identity argument (the contract the differential suite enforces):
the protocol layer performs *exactly* the sends, event appends and
counter updates of the pre-refactor worker, in the same order, from
the same message deliveries — the refactor moved code, not semantics.
New features only add behaviour on paths that previously denied
(forwarding) or change which victim a draw proposes (regions, lifeline
graphs) — all rank-local decisions driven by rank-local state, so the
engine and the test oracle, which deliver each rank's events in the
same order by the global event-key design, keep producing identical
float sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.sessions import Session
from repro.core.victim import VictimSelector
from repro.errors import SimulationError
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
from repro.protocol.status import WorkerStatus
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

__all__ = ["ProtocolPlan", "StealProtocol"]

#: Seed-stream constant separating the per-rank region-draw RNG from
#: the selector streams (``SeedSequence([seed, rank])``) and the
#: lifeline-graph stream (``repro.protocol.graphs._GRAPH_STREAM``).
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
    #: Run seed (region draws, randomised lifeline graphs).
    seed: int = 0

    @property
    def lifelines(self) -> bool:
        return self.lifeline_count > 0

    def partners_for(self, rank: int, nranks: int) -> list[int]:
        """Lifeline partners of ``rank`` under the configured graph."""
        if self.lifeline_count <= 0:
            return []
        from repro.protocol.graphs import graph_by_name

        builder = graph_by_name(self.lifeline_graph)
        return builder(
            rank,
            nranks,
            self.lifeline_count,
            seed=self.seed,
            regions=self.regions,
        )


class StealProtocol:
    """Steal-lifecycle state machine of one rank.

    Owns every protocol-side counter and session record; the worker
    exposes them through read-only delegating properties so the result
    layer (:mod:`repro.ws.results`) and the tests keep their surface.
    """

    __slots__ = (
        "worker",
        "rank",
        "nranks",
        "transport",
        "selector",
        "_notify",
        "policy",
        "steal_service_time",
        "events",
        "pending",
        "plain_serve",
        # Session accounting.
        "sessions",
        "_session_start",
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
        "chunks_sent",
        "nodes_sent",
        "service_time",
        # Forwarding.
        "_forward",
        "_forward_ttl",
        # Locality regions.
        "_region_peers",
        "_region_attempts",
        "_region_rng",
        # Lifelines.
        "_lifelines",
        "lifeline_threshold",
        "partners",
        "waiters",
        "_quiescent",
        "_armed",
        "lifeline_pushes",
        "lifeline_wakeups",
        "quiesce_episodes",
    )

    def __init__(self, worker, plan: ProtocolPlan):
        self.worker = worker
        self.rank = worker.rank
        self.nranks = worker.nranks
        # The transport *object* is cached (fixed for the worker's
        # lifetime); its methods are looked up per call — tests patch
        # them on the instance.
        self.transport = worker.transport
        self.selector = selector = worker.selector
        #: The selector's feedback hook, or None when it is the
        #: inherited no-op (every static strategy): a failed steal then
        #: pays no call for it.
        self._notify = (
            None
            if selector is None
            or type(selector).notify is VictimSelector.notify
            else selector.notify
        )
        self.policy = worker.policy
        self.steal_service_time = worker.steal_service_time
        self.events = worker.events

        #: Queued steal requests/forwards as ``(tag, src, body)``,
        #: answered at poll boundaries.
        #: The worker aliases this exact list object; it is mutated in
        #: place (append/clear), never rebound.
        self.pending: list = []
        #: True when ``serve_pending`` is a no-op on an empty queue, so
        #: ``Worker.on_exec`` may skip it.  Lifeline workers push
        #: spontaneously to armed waiters; forwarding and regions add
        #: no spontaneous serving.
        self.plain_serve = not plan.lifelines

        self.sessions: list[Session] = []
        self._session_start: float | None = None
        self._session_attempts = 0

        self.steal_requests_sent = 0
        self.consecutive_failed_steals = 0
        self._escalate_after = getattr(worker.policy, "escalate_after", None)
        self.failed_steals = 0
        self.successful_steals = 0
        self.chunks_received = 0
        self.nodes_received = 0

        self.requests_served = 0
        self.requests_denied = 0
        self.requests_forwarded = 0
        self.forwards_served = 0
        self.chunks_sent = 0
        self.nodes_sent = 0
        self.service_time = 0.0

        self._forward = plan.forward and plan.forward_ttl > 0
        self._forward_ttl = plan.forward_ttl

        regions = plan.regions
        if regions is not None and self.nranks > 1:
            peers = regions.peers(self.rank)
            self._region_peers = peers if peers else None
            self._region_rng = (
                np.random.default_rng(
                    np.random.SeedSequence(
                        [plan.seed, self.rank, _REGION_STREAM]
                    )
                )
                if peers
                else None
            )
        else:
            self._region_peers = None
            self._region_rng = None
        self._region_attempts = plan.region_attempts

        self._lifelines = plan.lifelines
        self.lifeline_threshold = plan.lifeline_threshold
        self.partners = plan.partners_for(self.rank, self.nranks)
        self.waiters: list[int] = []
        self._quiescent = False
        self._armed = False
        self.lifeline_pushes = 0
        self.lifeline_wakeups = 0
        self.quiesce_episodes = 0

    # ------------------------------------------------------------------
    # Worker-facing surface
    # ------------------------------------------------------------------

    def on_idle(self, t: float) -> None:
        """Stack exhausted: start a work-discovery session.

        The worker has already recorded the activity-trace transition;
        everything protocol-side happens here.
        """
        self.consecutive_failed_steals = 0
        self.worker.status = WorkerStatus.WAITING
        self._session_start = t
        self._session_attempts = 0
        self.transport.rank_became_idle(self.rank, t)
        if self.nranks > 1:
            self._send_steal_request(t)
        # nranks == 1: termination fires via rank_became_idle.

    def on_message(self, now: float, tag: int, src: int, body) -> None:
        """``(tag, body)`` from ``src`` arrived at (true) time ``now``."""
        w = self.worker
        status = w.status
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
                self.events.append(now, EV_STEAL_FAIL, src)
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
            elif self._forward:
                self._relay_or_deny(
                    now, src, body, self._forward_ttl, (src, self.rank)
                )
            else:
                # Idle ranks have nothing to give: the deny of
                # ``_relay_or_deny``, minus its frame.
                self.requests_denied += 1
                if self.events is not None:
                    self.events.append(now, EV_DENY, src)
                self.transport.send(
                    self.rank, src, TAG_STEAL_RESPONSE, None, now
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
        pending = self.pending
        if pending:
            ev = self.events
            stack = self.worker.stack
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
                    chunks = stack.steal_chunks(take)
                    nodes = sum(c.size for c in chunks)
                    self.requests_served += 1
                    self.chunks_sent += len(chunks)
                    self.nodes_sent += nodes
                    if tag == TAG_STEAL_FORWARD:
                        self.forwards_served += 1
                        if ev is not None:
                            ev.append(t, EV_FORWARD_SERVE, thief, nodes)
                    elif ev is not None:
                        ev.append(t, EV_SERVE, thief, nodes)
                    self.transport.work_sent(self.rank)
                    self.transport.send(
                        self.rank, thief, TAG_STEAL_RESPONSE, chunks, t
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
            stack = self.worker.stack
            while self.waiters and stack.stealable_chunks > 0:
                thief = self.waiters.pop(0)
                # A quiesced waiter is starving by definition: grant it
                # the escalated amount (a no-op for static policies).
                take = self.policy.chunks_for_request(
                    stack.stealable_chunks, escalated=True
                )
                if take == 0:
                    break
                t += self.steal_service_time
                self.service_time += self.steal_service_time
                chunks = stack.steal_chunks(take)
                nodes = sum(c.size for c in chunks)
                self.chunks_sent += len(chunks)
                self.nodes_sent += nodes
                self.lifeline_pushes += 1
                if self.events is not None:
                    self.events.append(t, EV_LIFELINE_PUSH, thief, nodes)
                self.transport.work_sent(self.rank)
                self.transport.send(
                    self.rank, thief, TAG_STEAL_RESPONSE, chunks, t
                )
        return t

    def on_finish(self, now: float) -> None:
        w = self.worker
        if w.status is WorkerStatus.RUNNING or not w.stack.is_empty:
            raise SimulationError(
                f"rank {self.rank}: Finish while holding work "
                "(termination detected too early)"
            )
        if self._session_start is not None:
            self._close_session(now, found_work=False)
        if self.events is not None:
            self.events.append(now, EV_FINISH)
        w.status = WorkerStatus.DONE
        w.finish_time = now

    # ------------------------------------------------------------------
    # Thief side
    # ------------------------------------------------------------------

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
            return peers[int(self._region_rng.integers(len(peers)))]
        assert self.selector is not None
        return self.selector.next_victim()

    def _send_steal_request(self, t: float) -> None:
        if self._region_peers is None:
            # _draw_victim without regions, minus its frame: this is
            # the failed-steal loop, two events per iteration.
            victim = self.selector.next_victim()
        else:
            victim = self._draw_victim()
        self.steal_requests_sent += 1
        self._session_attempts += 1
        escalated = (
            self._escalate_after is not None
            and self.consecutive_failed_steals >= self._escalate_after
        )
        ev = self.events
        if ev is not None:
            ev.append(t, EV_VICTIM_DRAW, victim, self._session_attempts)
            ev.append(t, EV_STEAL_SENT, victim, int(escalated))
        self.transport.send(self.rank, victim, TAG_STEAL_REQUEST, escalated, t)

    def _on_work(self, now: float, victim: int, chunks: list, status) -> None:
        """A response carrying work (a served steal or a lifeline push)."""
        w = self.worker
        if status is not WorkerStatus.WAITING:
            if not self._lifelines:
                raise SimulationError(
                    f"rank {self.rank}: steal response while {status.name}"
                )
            # A lifeline push raced our own recovery: merge the work.
            nodes = w.stack.receive_chunks(chunks)
            self.chunks_received += len(chunks)
            self.nodes_received += nodes
            if self.events is not None:
                self.events.append(now, EV_PUSH_RECV, victim, nodes)
            return
        if self._armed:
            self._disarm(now)
            self.lifeline_wakeups += 1
            if self.events is not None:
                self.events.append(now, EV_LIFELINE_WAKE, victim)
        received = w.stack.receive_chunks(chunks)
        self.successful_steals += 1
        self.chunks_received += len(chunks)
        self.nodes_received += received
        if self.events is not None:
            self.events.append(now, EV_STEAL_OK, victim, received)
        if self._notify is not None:
            self._notify(victim, True)
        self.consecutive_failed_steals = 0
        self._close_session(now, found_work=True)
        w._record(now, active=True)
        w.status = WorkerStatus.RUNNING
        self.transport.schedule_exec(self.rank, now)

    def _close_session(self, end: float, found_work: bool) -> None:
        assert self._session_start is not None
        self.sessions.append(
            Session(
                rank=self.rank,
                start=self._session_start,
                end=end,
                found_work=found_work,
                attempts=self._session_attempts,
            )
        )
        self._session_start = None
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
                    self.events.append(now, EV_STEAL_FORWARD, target, thief)
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
            self.events.append(now, EV_DENY, thief)
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
        self._armed = True
        self.quiesce_episodes += 1
        if self.events is not None:
            self.events.append(now, EV_LIFELINE_QUIESCE)
        for partner in self.partners:
            self.transport.send(
                self.rank, partner, TAG_LIFELINE_REGISTER, None, now
            )

    def _disarm(self, now: float) -> None:
        self._armed = False
        self._quiescent = False
        self.consecutive_failed_steals = 0
        for partner in self.partners:
            self.transport.send(
                self.rank, partner, TAG_LIFELINE_DEREGISTER, None, now
            )

    # ------------------------------------------------------------------

    @property
    def search_time(self) -> float:
        """Total time this rank spent in work-discovery sessions."""
        return sum(s.duration for s in self.sessions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StealProtocol(rank={self.rank}, "
            f"forward={self._forward}, "
            f"regions={self._region_peers is not None}, "
            f"lifelines={self._lifelines})"
        )
