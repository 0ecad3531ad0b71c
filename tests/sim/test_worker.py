"""Unit tests for the worker state machine, driven through a fake transport."""

from __future__ import annotations

import pytest

from repro.core.steal_policy import StealHalf, StealOne
from repro.core.victim import RoundRobinSelector
from repro.errors import SimulationError
from repro.protocol.core import Worker, WorkerStatus
from repro.protocol.messages import (
    TAG_FINISH,
    TAG_STEAL_REQUEST,
    TAG_STEAL_RESPONSE,
)
from repro.uts.params import TreeParams
from repro.uts.tree import TreeGenerator
from tests.sim import fakes

TREE = TreeParams(name="w", tree_type="binomial", root_seed=5, b0=50, m=2, q=0.4)


def make_worker(rank=0, nranks=4, **kwargs):
    selector = RoundRobinSelector().make(rank, nranks)
    return fakes.make_worker(rank, nranks, selector=selector, tree=TREE, **kwargs)


def push_nodes(worker: Worker, n: int) -> None:
    worker.stack.nodes += [(s, 3) for s in range(12345, 12345 + n)]


class TestStart:
    def test_rank0_gets_root_and_exec(self):
        w, t = make_worker(rank=0)
        w.start(0.0)
        assert w.status is WorkerStatus.RUNNING
        assert w.stack.size == 1
        assert t.execs == [(0, 0.0)]

    def test_other_ranks_start_searching(self):
        w, t = make_worker(rank=2)
        w.start(0.0)
        assert w.status is WorkerStatus.WAITING
        assert t.idles == [(2, 0.0)]
        assert len(t.sent) == 1
        src, dst, tag, body, when = t.sent[0]
        assert (src, tag, body) == (2, TAG_STEAL_REQUEST, False)
        assert dst == 3  # round-robin first victim is rank+1

    def test_selector_required_for_multirank(self):
        with pytest.raises(SimulationError):
            Worker(
                rank=0,
                nranks=4,
                generator=TreeGenerator(TREE),
                selector=None,
                policy=StealOne(),
                transport=fakes.FakeTransport(),
                chunk_size=5,
                poll_interval=4,
                per_node_time=1e-6,
                steal_service_time=1e-6,
            )


class TestExec:
    def test_expands_and_reschedules(self):
        w, t = make_worker(rank=0)
        w.start(0.0)
        w.on_exec(0.0)
        # The root expanded into b0 children.
        assert w.nodes_processed == 1
        assert w.stack.size == TREE.b0
        assert len(t.execs) == 2
        _, when = t.execs[-1]
        assert when == pytest.approx(1e-6)  # one node processed

    def test_quantum_duration_scales(self):
        w, t = make_worker(rank=0, poll=8)
        push_nodes(w, 20)
        w.status = WorkerStatus.RUNNING
        w.on_exec(5.0)
        assert w.nodes_processed == 8
        assert t.execs[-1][1] == pytest.approx(5.0 + 8e-6)

    def test_empty_stack_goes_idle(self):
        w, t = make_worker(rank=0)
        w.status = WorkerStatus.RUNNING
        w.on_exec(1.0)
        assert w.status is WorkerStatus.WAITING
        assert t.idles == [(0, 1.0)]
        assert t.sent[-1][2] == TAG_STEAL_REQUEST

    def test_exec_while_waiting_is_error(self):
        w, _ = make_worker(rank=1)
        w.start(0.0)
        with pytest.raises(SimulationError):
            w.on_exec(1.0)


class TestStealProtocol:
    def test_request_queued_while_running(self):
        w, t = make_worker(rank=0)
        push_nodes(w, 20)
        w.status = WorkerStatus.RUNNING
        w.on_message(1.0, TAG_STEAL_REQUEST, 3, False)
        assert len(w.pending) == 1
        assert not t.sent  # not answered yet

    def test_request_served_at_poll(self):
        w, t = make_worker(rank=0, chunk=5)
        push_nodes(w, 20)  # 4 chunks, 3 stealable
        w.status = WorkerStatus.RUNNING
        w.on_message(1.0, TAG_STEAL_REQUEST, 3, False)
        w.on_exec(2.0)
        src, dst, tag, chunks, when = t.sent[0]
        assert (src, dst, tag) == (0, 3, TAG_STEAL_RESPONSE)
        assert len(chunks) == 5  # StealOne: one 5-node chunk
        assert when == pytest.approx(2.0 + 1e-6)  # service time
        assert t.work_sends == [0]
        assert w.requests_served == 1

    def test_steal_half_serves_more(self):
        w, t = make_worker(rank=0, chunk=5, policy=StealHalf())
        push_nodes(w, 30)  # 6 chunks, 5 stealable
        w.status = WorkerStatus.RUNNING
        w.on_message(1.0, TAG_STEAL_REQUEST, 3, False)
        w.on_exec(2.0)
        assert len(t.sent[0][3]) == 15  # ceil(5/2) = 3 chunks

    def test_denied_when_only_private_chunk(self):
        w, t = make_worker(rank=0, chunk=5)
        push_nodes(w, 4)  # one partial chunk: private
        w.status = WorkerStatus.RUNNING
        w.on_message(1.0, TAG_STEAL_REQUEST, 3, False)
        w.on_exec(2.0)
        assert t.sent[0][2:4] == (TAG_STEAL_RESPONSE, None)
        assert w.requests_denied == 1
        assert t.work_sends == []

    def test_idle_rank_denies_immediately(self):
        w, t = make_worker(rank=1)
        w.start(0.0)
        n_before = len(t.sent)
        w.on_message(1.0, TAG_STEAL_REQUEST, 3, False)
        assert t.sent[n_before] == (1, 3, TAG_STEAL_RESPONSE, None, 1.0)
        # (sent at 1.0: no service delay for a denial)

    def test_successful_response_resumes(self):
        victim, vt = make_worker(rank=0, chunk=5)
        push_nodes(victim, 20)
        victim.status = WorkerStatus.RUNNING
        victim.on_message(1.0, TAG_STEAL_REQUEST, 1, False)
        victim.on_exec(2.0)
        src, _dst, tag, chunks, _when = vt.sent[0]

        thief, tt = make_worker(rank=1)
        thief.start(0.0)
        thief.on_message(3.0, tag, src, chunks)
        assert thief.status is WorkerStatus.RUNNING
        assert thief.stack.size == 5
        assert thief.successful_steals == 1
        assert tt.execs[-1] == (1, 3.0)
        assert (thief.idle_starts, thief.idle_ends) == ([0.0], [3.0])

    def test_failed_response_retries_next_victim(self):
        thief, tt = make_worker(rank=1)
        thief.start(0.0)
        first_victim = tt.sent[0][1]
        thief.on_message(2.0, TAG_STEAL_RESPONSE, first_victim, None)
        assert thief.failed_steals == 1
        second = tt.sent[-1]
        assert second[2] == TAG_STEAL_REQUEST
        assert second[1] != 1  # never self
        assert second[1] == (first_victim + 1) % 4  # ring continues

    def test_response_while_running_is_error(self):
        w, _ = make_worker(rank=0)
        push_nodes(w, 5)
        w.status = WorkerStatus.RUNNING
        with pytest.raises(SimulationError):
            w.on_message(1.0, TAG_STEAL_RESPONSE, 2, None)

    def test_unknown_message_rejected(self):
        w, _ = make_worker(rank=1)
        w.start(0.0)
        with pytest.raises(SimulationError):
            w.on_message(1.0, 99, 2, None)


class TestFinish:
    def test_finish_closes_session(self):
        w, _ = make_worker(rank=1)
        w.start(0.0)
        w.on_message(4.0, TAG_FINISH, 0, None)
        assert w.status is WorkerStatus.DONE
        assert w.finish_time == 4.0
        assert (w.idle_starts, w.idle_ends) == ([0.0], [4.0])
        assert w.idle_attempts == [1]

    def test_finish_while_holding_work_is_error(self):
        w, _ = make_worker(rank=0)
        push_nodes(w, 5)
        w.status = WorkerStatus.RUNNING
        with pytest.raises(SimulationError):
            w.on_message(1.0, TAG_FINISH, 0, None)

    def test_messages_after_done_dropped(self):
        w, t = make_worker(rank=1)
        w.start(0.0)
        w.on_message(4.0, TAG_FINISH, 0, None)
        n = len(t.sent)
        w.on_message(5.0, TAG_STEAL_REQUEST, 2, False)
        assert len(t.sent) == n  # no reply


class TestTracing:
    """The idle log: the one record the activity trace, the session
    statistics and the search times are derived from."""

    def test_rank0_trace(self):
        w, _ = make_worker(rank=0)
        w.start(0.0)
        assert w.status is WorkerStatus.RUNNING
        assert w.idle_starts == []  # active from 0: nothing logged

    def test_activity_cycle(self):
        w, t = make_worker(rank=1)
        w.start(0.0)
        assert (w.idle_starts, w.idle_ends) == ([0.0], [])
        # Receive work.
        victim, vt = make_worker(rank=0, chunk=5)
        push_nodes(victim, 20)
        victim.status = WorkerStatus.RUNNING
        victim.on_message(0.5, TAG_STEAL_REQUEST, 1, False)
        victim.on_exec(1.0)
        w.on_message(2.0, TAG_STEAL_RESPONSE, 0, vt.sent[0][3])
        assert (w.idle_starts, w.idle_ends) == ([0.0], [2.0])
        # Drain it (5 nodes, poll=4: two execs).
        w.on_exec(2.0)
        w.on_exec(3.0)
        if w.status is WorkerStatus.WAITING:
            assert (w.idle_starts, w.idle_ends) == ([0.0, 3.0], [2.0])

    def test_search_time_accumulates(self):
        w, t = make_worker(rank=1)
        w.start(0.0)
        w.on_message(2.0, TAG_STEAL_RESPONSE, 2, None)
        w.on_message(4.0, TAG_FINISH, 0, None)
        assert (w.idle_starts, w.idle_ends) == ([0.0], [4.0])
        assert w.idle_attempts == [2]


class TestMultipleQueuedRequests:
    def test_served_in_arrival_order_with_cumulative_service(self):
        w, t = make_worker(rank=0, chunk=5)
        push_nodes(w, 30)  # 6 chunks, 5 stealable
        w.status = WorkerStatus.RUNNING
        w.on_message(1.0, TAG_STEAL_REQUEST, 1, False)
        w.on_message(1.5, TAG_STEAL_REQUEST, 2, False)
        w.on_message(1.7, TAG_STEAL_REQUEST, 3, False)
        w.on_exec(2.0)
        responses = [m for m in t.sent if m[2] == TAG_STEAL_RESPONSE]
        assert [r[1] for r in responses] == [1, 2, 3]
        # Each positive response costs one service interval; send times
        # accumulate: 2+1e-6, 2+2e-6, 2+3e-6.
        import pytest as _pytest

        for k, (src, dst, tag, chunks, when) in enumerate(responses, start=1):
            assert chunks is not None
            assert when == _pytest.approx(2.0 + k * 1e-6)

    def test_exhausted_victim_denies_remainder(self):
        w, t = make_worker(rank=0, chunk=5)
        push_nodes(w, 10)  # 2 chunks, only 1 stealable
        w.status = WorkerStatus.RUNNING
        w.on_message(1.0, TAG_STEAL_REQUEST, 1, False)
        w.on_message(1.1, TAG_STEAL_REQUEST, 2, False)
        w.on_exec(2.0)
        bodies = [m[3] for m in t.sent if m[2] == TAG_STEAL_RESPONSE]
        assert bodies[0] is not None
        assert bodies[1] is None

    def test_service_time_delays_next_quantum(self):
        w, t = make_worker(rank=0, chunk=5, poll=4)
        push_nodes(w, 30)
        w.status = WorkerStatus.RUNNING
        w.on_message(1.0, TAG_STEAL_REQUEST, 1, False)
        w.on_exec(2.0)
        # Next quantum starts after the steal service + 4 nodes of work.
        import pytest as _pytest

        assert t.execs[-1][1] == _pytest.approx(2.0 + 1e-6 + 4e-6)
