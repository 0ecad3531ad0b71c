"""Tests for the oracle's event queue (``tests/sim/oracle.py``)."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.protocol.messages import TAG_EXEC, TAG_STEAL_REQUEST
from tests.sim.oracle import EventQueue


class TestOrdering:
    def test_time_order(self):
        q = EventQueue()
        q.push(3.0, TAG_EXEC, 0)
        q.push(1.0, TAG_EXEC, 1)
        q.push(2.0, TAG_EXEC, 2)
        ranks = [q.pop()[3] for _ in range(3)]
        assert ranks == [1, 2, 0]

    def test_fifo_among_equal_times(self):
        q = EventQueue()
        for rank in range(5):
            q.push(1.0, TAG_STEAL_REQUEST, rank, f"m{rank}")
        assert [q.pop()[3] for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_now_advances(self):
        q = EventQueue()
        q.push(5.0, TAG_EXEC, 0)
        assert q.now == 0.0
        q.pop()
        assert q.now == 5.0

    def test_payload_roundtrip(self):
        q = EventQueue()
        payload = {"x": 1}
        q.push(1.0, TAG_STEAL_REQUEST, 7, payload, pusher=3)
        time, pusher, tag, rank, got = q.pop()
        assert (time, pusher, tag, rank) == (1.0, 3, TAG_STEAL_REQUEST, 7)
        assert got is payload


class TestValidation:
    def test_push_into_past_rejected(self):
        q = EventQueue()
        q.push(5.0, TAG_EXEC, 0)
        q.pop()
        with pytest.raises(SimulationError):
            q.push(4.0, TAG_EXEC, 0)

    def test_push_at_now_ok(self):
        q = EventQueue()
        q.push(5.0, TAG_EXEC, 0)
        q.pop()
        q.push(5.0, TAG_EXEC, 0)  # same instant is fine

    def test_pop_empty(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_event_budget(self):
        q = EventQueue(max_events=3)
        for _ in range(4):
            q.push(1.0, TAG_EXEC, 0)
        q.pop()
        q.pop()
        q.pop()
        with pytest.raises(SimulationError):
            q.pop()

    def test_bad_budget(self):
        with pytest.raises(SimulationError):
            EventQueue(max_events=0)


class TestBookkeeping:
    def test_pending_and_processed(self):
        q = EventQueue()
        q.push(1.0, TAG_EXEC, 0)
        q.push(2.0, TAG_EXEC, 0)
        assert q.pending == 2
        assert q.processed == 0
        q.pop()
        assert q.pending == 1
        assert q.processed == 1

    def test_clear(self):
        q = EventQueue()
        q.push(1.0, TAG_EXEC, 0)
        q.push(2.0, TAG_EXEC, 0)
        assert q.clear() == 2
        assert q.empty

    def test_empty_property(self):
        q = EventQueue()
        assert q.empty
        q.push(1.0, TAG_EXEC, 0)
        assert not q.empty
