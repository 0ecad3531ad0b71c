"""Unit tests of the lifeline state machine via a fake transport."""

from __future__ import annotations

from repro.core.steal_policy import StealOne
from repro.protocol.core import ProtocolPlan, WorkerStatus
from repro.protocol.messages import (
    TAG_LIFELINE_DEREGISTER,
    TAG_LIFELINE_REGISTER,
    TAG_STEAL_REQUEST,
    TAG_STEAL_RESPONSE,
)
from tests.sim import fakes


def make_worker(rank=1, nranks=8, threshold=2, count=2, policy=None):
    plan = ProtocolPlan(lifeline_count=count, lifeline_threshold=threshold)
    return fakes.make_worker(rank, nranks, plan=plan, policy=policy)


class GrantNothing(StealOne):
    """A stub policy that never grants a chunk, stealable or not."""

    def chunks_for_request(self, stealable, escalated=False):
        return 0


def full_chunk(start=0) -> list:
    """A push's body: one five-node chunk of ``(state, depth)`` nodes."""
    return [(s, 2) for s in range(start, start + 5)]


def push_nodes(worker, n: int) -> None:
    worker.stack.nodes += [(s, 2) for s in range(n)]


class TestQuiescence:
    def test_quiesces_after_threshold_failures(self):
        w, t = make_worker(threshold=2)
        w.start(0.0)
        # Two failed responses reach the threshold.
        w.on_message(1.0, TAG_STEAL_RESPONSE, 2, None)
        assert not w._quiescent
        w.on_message(2.0, TAG_STEAL_RESPONSE, 3, None)
        assert w._quiescent
        assert w.quiesce_episodes == 1
        registers = [m for m in t.sent if m[2] == TAG_LIFELINE_REGISTER]
        assert len(registers) == len(w.partners)

    def test_no_requests_while_quiescent(self):
        w, t = make_worker(threshold=1)
        w.start(0.0)
        w.on_message(1.0, TAG_STEAL_RESPONSE, 2, None)
        n = len([m for m in t.sent if m[2] == TAG_STEAL_REQUEST])
        # Another failed response must not arrive (no request out), but
        # even if a stale one does, no new request is sent.
        w.on_message(2.0, TAG_STEAL_RESPONSE, 3, None)
        n2 = len([m for m in t.sent if m[2] == TAG_STEAL_REQUEST])
        assert n2 == n

    def test_wakeup_disarms(self):
        w, t = make_worker(threshold=1)
        w.start(0.0)
        w.on_message(1.0, TAG_STEAL_RESPONSE, 2, None)  # quiesce
        w.on_message(3.0, TAG_STEAL_RESPONSE, 4, full_chunk())
        assert w.status is WorkerStatus.RUNNING
        assert not w._quiescent
        assert w.lifeline_wakeups == 1
        deregs = [m for m in t.sent if m[2] == TAG_LIFELINE_DEREGISTER]
        assert len(deregs) == len(w.partners)


class TestPushes:
    def test_push_to_armed_waiter_at_poll(self):
        w, t = make_worker(rank=0)
        # Give the worker plenty of stealable work.
        push_nodes(w, 25)
        w.status = WorkerStatus.RUNNING
        w.on_message(1.0, TAG_LIFELINE_REGISTER, 5, None)
        assert w.waiters == [5]
        w.on_exec(2.0)
        pushes = [
            m for m in t.sent
            if m[2] == TAG_STEAL_RESPONSE and m[3] is not None and m[1] == 5
        ]
        assert len(pushes) == 1
        assert w.lifeline_pushes == 1
        assert w.waiters == []
        assert t.work_sends == [0]

    def test_deregister_removes_waiter(self):
        w, _ = make_worker(rank=0)
        w.status = WorkerStatus.RUNNING
        push_nodes(w, 25)
        w.on_message(1.0, TAG_LIFELINE_REGISTER, 5, None)
        w.on_message(1.5, TAG_LIFELINE_DEREGISTER, 5, None)
        assert w.waiters == []

    def test_duplicate_register_ignored(self):
        w, _ = make_worker(rank=0)
        w.status = WorkerStatus.RUNNING
        push_nodes(w, 25)
        w.on_message(1.0, TAG_LIFELINE_REGISTER, 5, None)
        w.on_message(1.1, TAG_LIFELINE_REGISTER, 5, None)
        assert w.waiters == [5]

    def test_spurious_push_while_running_merged(self):
        """A lifeline push racing the thief's own recovery is absorbed."""
        w, _ = make_worker(rank=0)
        w.status = WorkerStatus.RUNNING
        push_nodes(w, 5)
        before = w.stack.size
        w.on_message(2.0, TAG_STEAL_RESPONSE, 3, full_chunk(100))
        assert w.stack.size == before + 5
        assert w.status is WorkerStatus.RUNNING

    def test_no_push_without_stealable_work(self):
        w, t = make_worker(rank=0)
        w.status = WorkerStatus.RUNNING
        push_nodes(w, 3)  # single private chunk only
        w.on_message(1.0, TAG_LIFELINE_REGISTER, 5, None)
        w.on_exec(2.0)
        pushes = [
            m for m in t.sent if m[2] == TAG_STEAL_RESPONSE and m[3] is not None
        ]
        assert pushes == []
        assert w.waiters == [5]  # still armed for later

    def test_waiter_kept_when_policy_grants_nothing(self):
        """Chunks are stealable but the policy grants none: the waiter
        stays armed, and is pushed work once a grant is possible."""
        w, t = make_worker(rank=0, policy=GrantNothing())
        w.status = WorkerStatus.RUNNING
        push_nodes(w, 25)
        w.on_message(1.0, TAG_LIFELINE_REGISTER, 5, None)
        w.on_exec(2.0)
        assert w.stack.stealable_chunks > 0
        assert w.waiters == [5]
        assert w.lifeline_pushes == 0
        w.policy = StealOne()
        w.on_exec(3.0)
        assert w.waiters == []
        assert w.lifeline_pushes == 1
        assert [m[1] for m in t.sent if m[2] == TAG_STEAL_RESPONSE] == [5]
