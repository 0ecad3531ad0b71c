"""Unit tests of the worker's steal lifecycle via a fake transport.

A scripted transport drives one rank, so each branch — forwarding
relays, terminal denies, visited-set pruning, region-first draws —
is pinned without running a full simulation.
"""

from __future__ import annotations

import pytest

from repro.core import registry
from repro.core.victim import VictimSelector
from repro.protocol.core import ProtocolPlan, Worker, WorkerStatus
from repro.protocol.messages import (
    TAG_LIFELINE_REGISTER,
    TAG_STEAL_FORWARD,
    TAG_STEAL_REQUEST,
    TAG_STEAL_RESPONSE,
    StealForward,
)
from repro.protocol.regions import RegionMap
from tests.sim.fakes import make_worker


def _tagged(sent, tag):
    """The ``(src, dst, tag, body, when)`` sends carrying ``tag``."""
    return [m for m in sent if m[2] == tag]


FWD_PLAN = ProtocolPlan(forward=True, forward_ttl=2)


class TestWorkerSurface:
    """One rank is one class whatever the plan."""

    def test_lifeline_worker_is_a_plan_shim(self):
        # Lifelines are a plan field, never a worker class.
        w, _ = make_worker(plan=ProtocolPlan(lifeline_count=2))
        assert type(w) is Worker and w.partners
        assert not make_worker()[0].partners


class TestBaselineDeny:
    def test_idle_rank_denies_without_forwarding(self):
        w, t = make_worker()  # default plan: no forwarding
        w.start(0.0)
        w.on_message(1.0, TAG_STEAL_REQUEST, 5, False)
        denies = _tagged(t.sent, TAG_STEAL_RESPONSE)
        assert len(denies) == 1
        assert denies[0] == (1, 5, TAG_STEAL_RESPONSE, None, 1.0)
        assert w.requests_denied == 1
        assert w.requests_forwarded == 0

    def test_running_rank_queues_request(self):
        w, _ = make_worker()
        w.status = WorkerStatus.RUNNING
        w.on_message(1.0, TAG_STEAL_REQUEST, 5, False)
        assert len(w.pending) == 1

    @pytest.mark.parametrize("escalated, chunks", [(False, 1), (True, 3)])
    def test_queued_request_keeps_escalated_until_the_poll(
        self, escalated, chunks
    ):
        from repro.select.adaptive import AdaptiveStealPolicy

        w, t = make_worker(rank=0, policy=AdaptiveStealPolicy(3))
        w.stack.nodes += [(s, 2) for s in range(30)]  # 5 stealable
        w.status = WorkerStatus.RUNNING
        w.on_message(1.0, TAG_STEAL_REQUEST, 5, escalated)
        assert w.pending == [(TAG_STEAL_REQUEST, 5, escalated)]
        assert t.sent == []
        w.on_exec(2.0)
        [(src, dst, tag, body, _when)] = t.sent
        assert (src, dst, tag) == (0, 5, TAG_STEAL_RESPONSE)
        assert len(body) == 5 * chunks  # one chunk, or half when escalated
        assert w.pending == []


class TestForwarding:
    def test_idle_rank_relays_instead_of_denying(self):
        w, t = make_worker(plan=FWD_PLAN)
        w.start(0.0)
        w.on_message(1.0, TAG_STEAL_REQUEST, 5, False)
        fwds = _tagged(t.sent, TAG_STEAL_FORWARD)
        assert len(fwds) == 1
        src, dst, _, msg, _ = fwds[0]
        assert src == 1
        assert msg.thief == 5
        assert msg.ttl == FWD_PLAN.forward_ttl - 1
        assert dst not in (1, 5)  # never back to thief or self
        assert msg.visited == (5, 1, dst)
        assert w.requests_forwarded == 1
        assert w.requests_denied == 0
        assert _tagged(t.sent, TAG_STEAL_RESPONSE) == []

    def test_exhausted_ttl_denies_to_originator(self):
        w, t = make_worker(plan=FWD_PLAN)
        w.start(0.0)
        w.on_message(
            1.0,
            TAG_STEAL_FORWARD,
            3,
            StealForward(thief=5, escalated=False, ttl=0, visited=(5, 3, 1)),
        )
        assert _tagged(t.sent, TAG_STEAL_FORWARD) == []
        denies = _tagged(t.sent, TAG_STEAL_RESPONSE)
        assert len(denies) == 1
        assert denies[0][1] == 5  # terminal deny goes to the originator
        assert w.requests_denied == 1

    def test_fully_visited_chain_denies(self):
        w, t = make_worker(nranks=4, plan=FWD_PLAN)
        w.start(0.0)
        w.on_message(
            1.0,
            TAG_STEAL_FORWARD,
            3,
            StealForward(thief=0, escalated=False, ttl=5,
                         visited=(0, 1, 2, 3)),
        )
        assert _tagged(t.sent, TAG_STEAL_FORWARD) == []
        assert [m[1] for m in _tagged(t.sent, TAG_STEAL_RESPONSE)] == [0]

    def test_relay_skips_visited_ranks(self):
        w, t = make_worker(nranks=4, plan=FWD_PLAN)
        w.start(0.0)
        w.on_message(
            1.0,
            TAG_STEAL_FORWARD,
            2,
            StealForward(thief=0, escalated=False, ttl=5, visited=(0, 2, 1)),
        )
        fwds = _tagged(t.sent, TAG_STEAL_FORWARD)
        assert len(fwds) == 1
        assert fwds[0][1] == 3  # the only unvisited rank

    def test_served_forward_flows_to_originator(self):
        w, t = make_worker(rank=0, plan=FWD_PLAN)
        w.stack.nodes += [(s, 2) for s in range(25)]
        w.status = WorkerStatus.RUNNING
        w.on_message(
            1.0,
            TAG_STEAL_FORWARD,
            3,
            StealForward(thief=5, escalated=False, ttl=1, visited=(5, 3, 0)),
        )
        w.on_exec(2.0)
        serves = [
            m for m in _tagged(t.sent, TAG_STEAL_RESPONSE) if m[3] is not None
        ]
        assert len(serves) == 1
        # Straight to the thief, not hop 3; the sender is the victim.
        assert serves[0][:2] == (0, 5)
        assert w.forwards_served == 1
        assert w.requests_served == 1
        assert t.work_sends == [0]

    def test_escalation_flag_survives_the_relay(self):
        w, t = make_worker(plan=FWD_PLAN)
        w.start(0.0)
        w.on_message(
            1.0,
            TAG_STEAL_FORWARD,
            3,
            StealForward(thief=5, escalated=True, ttl=2, visited=(5, 3)),
        )
        fwds = _tagged(t.sent, TAG_STEAL_FORWARD)
        assert len(fwds) == 1 and fwds[0][3].escalated

    def test_forward_off_plan_never_relays(self):
        w, t = make_worker(plan=ProtocolPlan(forward=False))
        w.start(0.0)
        w.on_message(1.0, TAG_STEAL_REQUEST, 5, False)
        assert _tagged(t.sent, TAG_STEAL_FORWARD) == []
        assert w.requests_denied == 1


REGION_PLAN = ProtocolPlan(
    regions=RegionMap([0, 4, 8]), region_attempts=2
)


class TestRegions:
    def test_first_draws_stay_in_region(self):
        w, t = make_worker(rank=1, plan=REGION_PLAN)
        w.start(0.0)  # first request of the session
        reqs = _tagged(t.sent, TAG_STEAL_REQUEST)
        assert len(reqs) == 1
        assert reqs[0][1] in {0, 2, 3}
        # A failed reply triggers the second (still intra-region) draw.
        w.on_message(1.0, TAG_STEAL_RESPONSE, reqs[0][1], None)
        reqs = _tagged(t.sent, TAG_STEAL_REQUEST)
        assert len(reqs) == 2
        assert reqs[1][1] in {0, 2, 3}

    def test_draws_escalate_after_budget(self):
        w, t = make_worker(rank=1, plan=REGION_PLAN)
        w.start(0.0)
        # Burn the intra-region budget, then many more draws: at least
        # one must leave the region (uniform over 7 ranks, 4 outside).
        for i in range(40):
            reqs = _tagged(t.sent, TAG_STEAL_REQUEST)
            w.on_message(float(i + 1), TAG_STEAL_RESPONSE, reqs[-1][1], None)
        targets = {m[1] for m in _tagged(t.sent, TAG_STEAL_REQUEST)[2:]}
        assert targets - {0, 2, 3}, "selector draws never left the region"

    def test_region_first_forward_targets(self):
        plan = ProtocolPlan(
            forward=True, forward_ttl=2, regions=RegionMap([0, 4, 8])
        )
        w, t = make_worker(rank=1, plan=plan)
        w.start(0.0)
        w.on_message(1.0, TAG_STEAL_REQUEST, 6, False)
        fwds = _tagged(t.sent, TAG_STEAL_FORWARD)
        assert len(fwds) == 1
        assert fwds[0][1] in {0, 2, 3}  # relay prefers region peers

    def test_session_reset_restores_region_budget(self):
        w, t = make_worker(rank=1, plan=REGION_PLAN)
        w.start(0.0)
        assert w._session_attempts == 1
        reqs = _tagged(t.sent, TAG_STEAL_REQUEST)
        w.on_message(1.0, TAG_STEAL_RESPONSE, reqs[0][1], _work_chunk())
        assert w.status is WorkerStatus.RUNNING
        assert w._session_attempts == 0


def _work_chunk():
    """A grant's body: one five-node chunk of ``(state, depth)`` nodes."""
    return [(s, 2) for s in range(5)]


class TestCounters:
    def test_worker_counters_are_protocol_views(self):
        w, _ = make_worker(plan=FWD_PLAN)
        w.requests_forwarded = 7
        w.forwards_served = 3
        assert w.requests_forwarded == 7
        assert w.forwards_served == 3

    def test_only_lifeline_ranks_take_waiters(self):
        # A poll skips ``serve_pending`` when nothing is pending and no
        # waiter is armed: only a lifeline rank serves spontaneously,
        # and only a lifeline rank ever holds a waiter.
        from repro.errors import SimulationError

        w, _ = make_worker(plan=FWD_PLAN)
        with pytest.raises(SimulationError, match="unexpected message tag"):
            w.on_message(1.0, TAG_LIFELINE_REGISTER, 5, None)
        assert w.waiters == []
        w2, _ = make_worker(plan=ProtocolPlan(lifeline_count=2))
        w2.on_message(1.0, TAG_LIFELINE_REGISTER, 5, None)
        assert w2.waiters == [5]


class TestLifelineRaces:
    """A stale lifeline push can wake a thief while its real steal
    request is still in flight; the eventual deny then lands while
    RUNNING.  With lifelines that deny is tolerated (the chain keeps
    hunting); without them a non-WAITING response stays a protocol
    violation."""

    def test_deny_while_running_is_tolerated_with_lifelines(self):
        w, t = make_worker(plan=ProtocolPlan(lifeline_count=2))
        w.status = WorkerStatus.RUNNING
        w.on_message(1.0, TAG_STEAL_RESPONSE, 3, None)
        assert w.failed_steals == 1
        assert len(_tagged(t.sent, TAG_STEAL_REQUEST)) == 1  # chain resent

    def test_deny_while_running_raises_without_lifelines(self):
        from repro.errors import SimulationError

        w, _ = make_worker(plan=FWD_PLAN)
        w.status = WorkerStatus.RUNNING
        with pytest.raises(SimulationError, match="while RUNNING"):
            w.on_message(1.0, TAG_STEAL_RESPONSE, 3, None)

    def test_work_while_running_raises_without_lifelines(self):
        from repro.errors import SimulationError

        w, _ = make_worker()
        w.status = WorkerStatus.RUNNING
        with pytest.raises(SimulationError, match="while RUNNING"):
            w.on_message(1.0, TAG_STEAL_RESPONSE, 3, _work_chunk())
        assert w.stack.is_empty


class _CountingSelector(VictimSelector):
    def __init__(self):
        self.notified = []

    def next_victim(self):
        return 2

    def notify(self, victim, success):
        self.notified.append((victim, success))


class TestSelectorFeedback:
    """``notify`` is bound once per rank, and only when a selector
    overrides it: a failed steal under a static strategy pays no call
    for the inherited no-op."""

    @pytest.mark.parametrize(
        "name, bound",
        [
            ("reference", False),
            ("rand", False),
            ("tofu", False),
            ("lastvictim", True),
            ("adapt-eps", True),
            ("adapt-sr", True),
            ("adapt-backoff", True),
        ],
    )
    def test_base_noop_is_never_bound(self, name, bound):
        from repro.net.allocation import build_placement

        selector = registry.resolve("selector", name).make(
            1, 8, build_placement(8, "1/N"), seed=0
        )
        w, _ = make_worker(selector=selector)
        assert (w._notify is not None) == bound
        if bound:
            assert w._notify == selector.notify

    def test_override_is_called_once_per_steal_outcome(self):
        selector = _CountingSelector()
        w, t = make_worker(selector=selector)
        w.start(0.0)
        w.on_message(1.0, TAG_STEAL_RESPONSE, 2, None)
        w.on_message(2.0, TAG_STEAL_RESPONSE, 2, None)
        assert selector.notified == [(2, False), (2, False)]
        w.on_message(3.0, TAG_STEAL_RESPONSE, 2, [_work_chunk()])
        assert selector.notified == [(2, False), (2, False), (2, True)]
        assert (w.failed_steals, w.successful_steals) == (2, 1)
        assert len(_tagged(t.sent, TAG_STEAL_REQUEST)) == 3
