"""Unit tests of the lifeline state machine via a fake transport."""

from __future__ import annotations

from repro.core.steal_policy import StealOne
from repro.core.victim import UniformRandomSelector
from repro.protocol.core import ProtocolPlan
from repro.protocol.messages import (
    TAG_LIFELINE_DEREGISTER,
    TAG_LIFELINE_REGISTER,
    TAG_STEAL_REQUEST,
    TAG_STEAL_RESPONSE,
)
from repro.sim.worker import Worker, WorkerStatus
from repro.uts.params import TreeParams
from repro.uts.stack import Chunk
from repro.uts.tree import TreeGenerator

TREE = TreeParams(name="lw", tree_type="binomial", root_seed=3, b0=30, m=2, q=0.4)


class FakeTransport:
    def __init__(self):
        self.sent = []
        self.execs = []
        self.idles = []
        self.work_sends = []

    def send(self, src, dst, tag, body, when):
        self.sent.append((src, dst, tag, body, when))

    def schedule_exec(self, rank, when):
        self.execs.append((rank, when))

    def rank_became_idle(self, rank, when):
        self.idles.append((rank, when))

    def work_sent(self, rank):
        self.work_sends.append(rank)

    def local_time(self, rank, true_time):
        return true_time


def make_worker(rank=1, nranks=8, threshold=2, count=2):
    t = FakeTransport()
    w = Worker(
        rank=rank,
        nranks=nranks,
        generator=TreeGenerator(TREE),
        selector=UniformRandomSelector().make(rank, nranks, seed=0),
        policy=StealOne(),
        transport=t,
        chunk_size=5,
        poll_interval=4,
        per_node_time=1e-6,
        steal_service_time=1e-6,
        plan=ProtocolPlan(lifeline_count=count, lifeline_threshold=threshold),
    )
    return w, t


def full_chunk(start=0) -> Chunk:
    c = Chunk(5)
    c.states, c.depths, c.size = list(range(start, start + 5)), [2] * 5, 5
    return c


class TestQuiescence:
    def test_quiesces_after_threshold_failures(self):
        w, t = make_worker(threshold=2)
        w.start(0.0)
        # Two failed responses reach the threshold.
        w.on_message(1.0, TAG_STEAL_RESPONSE, 2, None)
        assert not w.protocol._quiescent
        w.on_message(2.0, TAG_STEAL_RESPONSE, 3, None)
        assert w.protocol._quiescent
        assert w.protocol.quiesce_episodes == 1
        registers = [m for m in t.sent if m[2] == TAG_LIFELINE_REGISTER]
        assert len(registers) == len(w.protocol.partners)

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
        w.on_message(3.0, TAG_STEAL_RESPONSE, 4, [full_chunk()])
        assert w.status is WorkerStatus.RUNNING
        assert not w.protocol._quiescent
        assert w.protocol.lifeline_wakeups == 1
        deregs = [m for m in t.sent if m[2] == TAG_LIFELINE_DEREGISTER]
        assert len(deregs) == len(w.protocol.partners)


class TestPushes:
    def test_push_to_armed_waiter_at_poll(self):
        w, t = make_worker(rank=0)
        # Give the worker plenty of stealable work.
        w.stack.push_batch_list(list(range(25)), [2] * 25)
        w.status = WorkerStatus.RUNNING
        w.on_message(1.0, TAG_LIFELINE_REGISTER, 5, None)
        assert w.protocol.waiters == [5]
        w.on_exec(2.0)
        pushes = [
            m for m in t.sent
            if m[2] == TAG_STEAL_RESPONSE and m[3] is not None and m[1] == 5
        ]
        assert len(pushes) == 1
        assert w.protocol.lifeline_pushes == 1
        assert w.protocol.waiters == []
        assert t.work_sends == [0]

    def test_deregister_removes_waiter(self):
        w, _ = make_worker(rank=0)
        w.status = WorkerStatus.RUNNING
        w.stack.push_batch_list(list(range(25)), [2] * 25)
        w.on_message(1.0, TAG_LIFELINE_REGISTER, 5, None)
        w.on_message(1.5, TAG_LIFELINE_DEREGISTER, 5, None)
        assert w.protocol.waiters == []

    def test_duplicate_register_ignored(self):
        w, _ = make_worker(rank=0)
        w.status = WorkerStatus.RUNNING
        w.stack.push_batch_list(list(range(25)), [2] * 25)
        w.on_message(1.0, TAG_LIFELINE_REGISTER, 5, None)
        w.on_message(1.1, TAG_LIFELINE_REGISTER, 5, None)
        assert w.protocol.waiters == [5]

    def test_spurious_push_while_running_merged(self):
        """A lifeline push racing the thief's own recovery is absorbed."""
        w, _ = make_worker(rank=0)
        w.status = WorkerStatus.RUNNING
        w.stack.push_batch_list(list(range(5)), [2] * 5)
        before = w.stack.size
        w.on_message(2.0, TAG_STEAL_RESPONSE, 3, [full_chunk(100)])
        assert w.stack.size == before + 5
        assert w.status is WorkerStatus.RUNNING

    def test_no_push_without_stealable_work(self):
        w, t = make_worker(rank=0)
        w.status = WorkerStatus.RUNNING
        w.stack.push_batch_list(list(range(3)), [2] * 3)  # single private chunk only
        w.on_message(1.0, TAG_LIFELINE_REGISTER, 5, None)
        w.on_exec(2.0)
        pushes = [
            m for m in t.sent if m[2] == TAG_STEAL_RESPONSE and m[3] is not None
        ]
        assert pushes == []
        assert w.protocol.waiters == [5]  # still armed for later
