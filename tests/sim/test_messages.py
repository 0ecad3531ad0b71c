"""Tests for the protocol wire format: tags, colours, bodies."""

from __future__ import annotations

import pytest

from repro.core.config import WorkStealingConfig
from repro.core.steal_policy import StealOne
from repro.core.victim import RoundRobinSelector
from repro.errors import StackError
from repro.protocol import messages
from repro.protocol.core import Worker, WorkerStatus
from repro.protocol.messages import (
    BLACK,
    TAG_STEAL_RESPONSE,
    WHITE,
    StealForward,
)
from repro.sim.cluster import Cluster
from repro.uts.params import T3XS
from repro.uts.tree import TreeGenerator


class _NullTransport:
    def send(self, src, dst, tag, body, when):
        pass

    def schedule_exec(self, rank, when):
        pass

    def rank_became_idle(self, rank, when):
        pass


def _waiting_thief() -> Worker:
    w = Worker(
        rank=1,
        nranks=4,
        generator=TreeGenerator(T3XS),
        selector=RoundRobinSelector().make(1, 4),
        policy=StealOne(),
        transport=_NullTransport(),
        chunk_size=4,
        poll_interval=4,
        per_node_time=1e-6,
        steal_service_time=1e-6,
    )
    w.start(0.0)
    assert w.status is WorkerStatus.WAITING
    return w


def _arrival(body) -> float:
    """When a response with ``body``, sent at 1.0, is due to arrive."""
    cluster = Cluster(WorkStealingConfig(tree=T3XS, nranks=4))
    cluster.send(2, 1, TAG_STEAL_RESPONSE, body, 1.0)
    [(arrival, src, _seq, tag, dst, got)] = cluster._heap
    assert (src, tag, dst) == (2, TAG_STEAL_RESPONSE, 1) and got is body
    return arrival


def test_tags_are_distinct():
    tags = {
        name: value
        for name, value in vars(messages).items()
        if name.startswith("TAG_")
    }
    assert sorted(tags) == sorted(
        n for n in messages.__all__ if n.startswith("TAG_")
    )
    assert len(tags) == 8 and "TAG_EXEC" in tags
    assert all(type(v) is int for v in tags.values())
    assert len(set(tags.values())) == len(tags)


class TestStealMessages:
    def test_response_with_work(self):
        # The body of a grant is the stolen chunks' nodes, one flat
        # list; the wire charges them, and the thief — who reads the
        # victim off the sender — resumes with them.
        cfg = WorkStealingConfig(tree=T3XS, nranks=4)
        body = [(s, 1) for s in range(8)]  # two chunks of four
        assert _arrival(body) == pytest.approx(
            _arrival(None) + 8 * cfg.transfer_time_per_node
        )
        w = _waiting_thief()
        w.on_message(2.0, TAG_STEAL_RESPONSE, 2, body)
        assert w.status is WorkerStatus.RUNNING
        assert (w.successful_steals, w.nodes_received) == (1, 8)
        assert (w.chunks_received, w.stack.nodes) == (2, body)

    def test_response_without_work(self):
        # A deny is ``body is None``: nothing allocated, nothing charged.
        w = _waiting_thief()
        w.on_message(2.0, TAG_STEAL_RESPONSE, 2, None)
        assert w.status is WorkerStatus.WAITING
        assert (w.failed_steals, w.successful_steals) == (1, 0)

    def test_empty_body_is_rejected(self):
        # Protocol rule: None means denial, a grant carries whole
        # chunks.  An empty list is neither: the worker never produces
        # one, and the thief's stack refuses it instead of counting a
        # steal that moved nothing.
        assert _arrival([]) == _arrival(None)
        w = _waiting_thief()
        with pytest.raises(StackError, match="empty"):
            w.on_message(2.0, TAG_STEAL_RESPONSE, 2, [])
        assert (w.failed_steals, w.successful_steals) == (0, 0)


class TestToken:
    def test_colors(self):
        assert {WHITE, BLACK} == {0, 1}


class TestStealForward:
    def test_fields(self):
        f = StealForward(thief=5, escalated=True, ttl=2, visited=[5, 3])
        assert (f.thief, f.escalated, f.ttl) == (5, True, 2)
        assert f.visited == (5, 3)  # stored as a tuple


def test_messages_use_slots():
    # The one body object must stay lightweight: no per-instance dict.
    assert not hasattr(StealForward(0, False, 1, (0,)), "__dict__")
