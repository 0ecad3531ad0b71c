"""Unit tests for the validated event trace."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.events import (
    EV_DENY,
    EV_SERVE,
    EV_STEAL_OK,
    EV_STEAL_SENT,
    EV_TOKEN,
    EVENT_NAMES,
    EVENT_SCHEMA,
    EventTrace,
)


class TestEventTraceValidation:
    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            EventTrace([])

    def test_out_of_order_rejected(self):
        with pytest.raises(TraceError, match="out of order"):
            EventTrace([[(1.0, EV_TOKEN, 0, 0), (0.5, EV_TOKEN, 0, 0)]])

    def test_equal_times_allowed(self):
        t = EventTrace([[(1.0, EV_TOKEN, 0, 0), (1.0, EV_TOKEN, 0, 0)]])
        assert len(t) == 2

    def test_nan_timestamp_rejected(self):
        """NaN compares False against everything, so a plain ordering
        check would silently accept it — must be rejected explicitly."""
        with pytest.raises(TraceError, match="non-finite"):
            EventTrace([[(math.nan, EV_TOKEN, 0, 0)]])

    def test_inf_timestamp_rejected(self):
        with pytest.raises(TraceError, match="non-finite"):
            EventTrace([[(math.inf, EV_TOKEN, 0, 0)]])

    def test_unknown_etype_rejected(self):
        with pytest.raises(TraceError, match="unknown event type"):
            EventTrace([[(0.0, 999, 0, 0)]])

    def test_bad_tuple_shape_rejected(self):
        with pytest.raises(TraceError, match="4-tuple"):
            EventTrace([[(0.0, EV_TOKEN, 0)]])

    def test_empty_rank_streams_ok(self):
        t = EventTrace([[], []])
        assert t.nranks == 2
        assert len(t) == 0

    def test_from_streams_sorts_interleaved_times(self):
        # Causal order can interleave timestamps (a victim answers a
        # mid-quantum arrival after advancing its local clock); the
        # assembler normalises each rank chronologically.
        stream = [(2.0, EV_SERVE, 1, 5), (1.5, EV_DENY, 2, 0)]
        t = EventTrace.from_streams([stream])
        assert [ev[0] for ev in t.ranks[0]] == [1.5, 2.0]



class TestEventTraceViews:
    def _trace(self) -> EventTrace:
        return EventTrace(
            [
                [(0.0, EV_STEAL_SENT, 1, 0), (1.0, EV_STEAL_OK, 1, 7)],
                [(0.5, EV_SERVE, 0, 7)],
            ]
        )

    def test_count(self):
        t = self._trace()
        assert t.count(EV_STEAL_SENT) == 1
        assert t.count(EV_SERVE) == 1
        assert t.count(EV_SERVE, rank=0) == 0
        assert t.count(EV_SERVE, rank=1) == 1

    def test_merged_is_time_sorted_with_rank_tiebreak(self):
        t = EventTrace(
            [
                [(1.0, EV_TOKEN, 0, 0)],
                [(0.5, EV_TOKEN, 1, 0), (1.0, EV_TOKEN, 1, 0)],
            ]
        )
        merged = t.merged()
        assert [(ev[0], ev[1]) for ev in merged] == [(0.5, 1), (1.0, 0), (1.0, 1)]

    def test_canonical_bytes_round_trip_exact(self):
        t = self._trace()
        blob = t.canonical_bytes()
        assert blob == t.canonical_bytes()
        # repr of floats is shortest-round-trip: a one-ulp difference
        # must change the encoding.
        bumped = EventTrace(
            [
                [
                    (0.0, EV_STEAL_SENT, 1, 0),
                    (math.nextafter(1.0, 2.0), EV_STEAL_OK, 1, 7),
                ],
                [(0.5, EV_SERVE, 0, 7)],
            ]
        )
        assert bumped.canonical_bytes() != blob

    def test_canonical_bytes_ignore_the_scalar_type_of_a_time(self):
        # The encoding is of values: ``repr(np.float64(x))`` reads
        # ``np.float64(x)`` on NumPy >= 2, so a stream whose times are
        # NumPy scalars must still encode like the same Python floats.
        mixed = EventTrace(
            [
                [
                    (np.float64(0.0), EV_STEAL_SENT, 1, 0),
                    (1.0, EV_STEAL_OK, 1, 7),
                ],
                [(np.float64(0.5), EV_SERVE, 0, 7)],
            ]
        )
        blob = self._trace().canonical_bytes()
        assert mixed.canonical_bytes() == blob
        assert b"float64" not in blob


def test_schema_covers_every_event_type():
    assert set(EVENT_SCHEMA) == set(EVENT_NAMES)
    assert len(set(EVENT_NAMES.values())) == len(EVENT_NAMES)
