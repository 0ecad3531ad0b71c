"""Tests for protocol message types."""

from __future__ import annotations

import pytest

from repro.protocol.messages import (
    BLACK,
    WHITE,
    Finish,
    LifelineDeregister,
    LifelineRegister,
    StealRequest,
    StealResponse,
    Token,
)
from repro.uts.stack import Chunk


def _chunk(n: int) -> Chunk:
    c = Chunk(n)
    c.states, c.depths, c.size = list(range(n)), [0] * n, n
    return c


class TestStealMessages:
    def test_request_carries_thief(self):
        assert StealRequest(thief=5).thief == 5

    def test_response_with_work(self):
        r = StealResponse(victim=2, chunks=[_chunk(4), _chunk(3)])
        assert r.has_work
        assert r.nodes == 7
        assert r.victim == 2

    def test_response_without_work(self):
        r = StealResponse(victim=2, chunks=None)
        assert not r.has_work
        assert r.nodes == 0

    def test_empty_chunk_list_counts_as_work(self):
        # Protocol rule: chunks=None means denial; an empty list is a
        # (degenerate) grant.  The worker never produces it, but the
        # distinction must be stable.
        r = StealResponse(victim=0, chunks=[])
        assert r.has_work
        assert r.nodes == 0


class TestToken:
    def test_colors(self):
        assert Token(WHITE).color == WHITE
        assert Token(BLACK).color == BLACK

    def test_bad_color(self):
        with pytest.raises(ValueError):
            Token(3)


class TestLifelineMessages:
    def test_register(self):
        assert LifelineRegister(thief=7).thief == 7

    def test_deregister(self):
        assert LifelineDeregister(thief=7).thief == 7


def test_finish_is_stateless():
    assert repr(Finish()) == "Finish()"


def test_messages_use_slots():
    # Hot-path messages must stay lightweight: no per-instance dict.
    for msg in (
        StealRequest(0),
        StealResponse(0, None),
        Token(WHITE),
        Finish(),
        LifelineRegister(0),
        LifelineDeregister(0),
    ):
        assert not hasattr(msg, "__dict__")
