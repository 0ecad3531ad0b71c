"""Tests for the scheduling-latency metric (SL/EL, occupancy)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics import (
    OccupancyCurve,
    latency_profile,
)
from repro.core.tracing import ActivityTrace
from repro.errors import TraceError


def _trace(*rank_events) -> ActivityTrace:
    return ActivityTrace(
        [
            (
                np.array([t for t, _ in events], dtype=np.float64),
                np.array([a for _, a in events], dtype=bool),
            )
            for events in rank_events
        ]
    )


# Four ranks: rank 0 active [0, 100]; ranks 1-3 join at 5, 10, 50 and
# stop at 95, 90, 60.
TRACE4 = _trace(
    [(0.0, True), (100.0, False)],
    [(5.0, True), (95.0, False)],
    [(10.0, True), (90.0, False)],
    [(50.0, True), (60.0, False)],
)


class TestOccupancyCurve:
    def test_workers_pointwise(self):
        c = OccupancyCurve(TRACE4, 4, 100.0)
        assert c.workers(0.0) == 1
        assert c.workers(7.0) == 2
        assert c.workers(55.0) == 4
        assert c.workers(70.0) == 3
        assert c.workers(99.0) == 1

    def test_before_first_event(self):
        c = OccupancyCurve(_trace([(5.0, True), (9.0, False)]), 1, 10.0)
        assert c.workers(1.0) == 0

    def test_occupancy(self):
        c = OccupancyCurve(TRACE4, 4, 100.0)
        assert c.occupancy(55.0) == pytest.approx(1.0)
        assert c.occupancy(7.0) == pytest.approx(0.5)

    def test_max_workers(self):
        c = OccupancyCurve(TRACE4, 4, 100.0)
        assert c.max_workers == 4
        assert c.max_occupancy == pytest.approx(1.0)

    def test_max_workers_partial(self):
        t = _trace([(0.0, True), (10.0, False)], [], [])
        c = OccupancyCurve(t, 3, 10.0)
        assert c.max_workers == 1
        assert c.max_occupancy == pytest.approx(1 / 3)

    def test_average_occupancy(self):
        # One of two ranks active half the time -> 0.25.
        t = _trace([(0.0, True), (5.0, False)], [])
        c = OccupancyCurve(t, 2, 10.0)
        assert c.average_occupancy() == pytest.approx(0.25)

    def test_average_occupancy_empty(self):
        c = OccupancyCurve(_trace([]), 2, 10.0)
        assert c.average_occupancy() == 0.0

    def test_validation(self):
        with pytest.raises(TraceError):
            OccupancyCurve(TRACE4, 4, 0.0)
        with pytest.raises(TraceError):
            OccupancyCurve(TRACE4, 0, 100.0)
        with pytest.raises(TraceError):
            OccupancyCurve(TRACE4, 4, 50.0)  # trace extends past T


class TestStartingLatency:
    def test_paper_example(self):
        """SL(10%) = 5% means 10% occupancy first reached at 5% of T."""
        events = [[(5.0, True), (100.0, False)]] + [
            [(80.0, True), (100.0, False)] for _ in range(9)
        ]
        t = _trace(*events)
        c = OccupancyCurve(t, 10, 100.0)
        assert c.starting_latency(0.10) == pytest.approx(0.05)

    def test_monotone_in_occupancy(self):
        c = OccupancyCurve(TRACE4, 4, 100.0)
        sls = [c.starting_latency(x) for x in (0.25, 0.5, 0.75, 1.0)]
        assert sls == sorted(sls)
        assert sls[0] == pytest.approx(0.0)
        assert sls[3] == pytest.approx(0.5)

    def test_unreached_is_none(self):
        t = _trace([(0.0, True), (10.0, False)], [])
        c = OccupancyCurve(t, 2, 10.0)
        assert c.starting_latency(1.0) is None


class TestEndingLatency:
    def test_values(self):
        c = OccupancyCurve(TRACE4, 4, 100.0)
        # 100% occupancy last held until t=60 -> EL = 40%.
        assert c.ending_latency(1.0) == pytest.approx(0.40)
        # 75% holds until t=90 -> EL = 10%.
        assert c.ending_latency(0.75) == pytest.approx(0.10)
        # 25% holds until the end.
        assert c.ending_latency(0.25) == pytest.approx(0.0)

    def test_unreached_is_none(self):
        t = _trace([(0.0, True), (10.0, False)], [])
        c = OccupancyCurve(t, 2, 10.0)
        assert c.ending_latency(1.0) is None

    def test_symmetry_of_definitions(self):
        """A time-mirrored trace swaps SL and EL."""
        t = _trace([(10.0, True), (90.0, False)])
        c = OccupancyCurve(t, 1, 100.0)
        assert c.starting_latency(1.0) == pytest.approx(0.10)
        assert c.ending_latency(1.0) == pytest.approx(0.10)


class TestLatencyProfile:
    def test_default_grid(self):
        p = latency_profile(TRACE4, 4, 100.0)
        assert len(p.occupancies) == 100
        assert p.max_occupancy == pytest.approx(1.0)

    def test_custom_grid(self):
        p = latency_profile(TRACE4, 4, 100.0, np.array([0.25, 0.5, 1.0]))
        assert p.starting.tolist() == pytest.approx([0.0, 0.05, 0.5])
        assert p.ending.tolist() == pytest.approx([0.0, 0.05, 0.40])

    def test_nan_where_unreached(self):
        t = _trace([(0.0, True), (10.0, False)], [])
        p = latency_profile(t, 2, 10.0, np.array([0.5, 1.0]))
        assert not np.isnan(p.starting[0])
        assert np.isnan(p.starting[1])
        assert np.isnan(p.ending[1])

    def test_profile_shapes_match(self):
        p = latency_profile(TRACE4, 4, 100.0)
        assert p.starting.shape == p.ending.shape == p.occupancies.shape
