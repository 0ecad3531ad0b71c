"""Tests for work-discovery session statistics."""

from __future__ import annotations

import pytest

from repro.core.sessions import summarize_sessions
from repro.errors import TraceError


class TestSession:
    """One rank, one session: the period that ends at termination."""

    def test_duration(self):
        stats = summarize_sessions([2.5], [2], nranks=1)
        assert stats.mean_duration == pytest.approx(2.5)
        assert stats.total_search_time == pytest.approx(2.5)
        assert stats.count == 1 and stats.successful == 0

    def test_zero_duration_ok(self):
        stats = summarize_sessions([0.0], [0], nranks=1)
        assert stats.max_duration == 0.0
        assert stats.mean_attempts == 0.0


class TestSummarize:
    def test_empty(self):
        stats = summarize_sessions([], [], nranks=4)
        assert stats.count == 0
        assert stats.mean_duration == 0.0
        assert stats.sessions_per_rank == 0.0

    def test_bad_nranks(self):
        with pytest.raises(TraceError):
            summarize_sessions([], [], nranks=0)

    def test_aggregates(self):
        # Rank 0 found work once, then terminated; rank 1 terminated.
        stats = summarize_sessions([2.0, 4.0, 1.0], [1, 3, 2], nranks=2)
        assert stats.count == 3
        assert stats.successful == 1
        assert stats.mean_duration == pytest.approx((2 + 4 + 1) / 3)
        assert stats.max_duration == pytest.approx(4.0)
        assert stats.total_search_time == pytest.approx(7.0)
        assert stats.mean_attempts == pytest.approx(2.0)
        assert stats.sessions_per_rank == pytest.approx(1.5)

    def test_stats_is_frozen(self):
        stats = summarize_sessions([], [], nranks=1)
        with pytest.raises(AttributeError):
            stats.count = 5  # type: ignore[misc]

    def test_all_terminated(self):
        stats = summarize_sessions([1.0] * 3, [5] * 3, nranks=3)
        assert stats.count == 3 and stats.successful == 0
