"""Tests for the NIC contention model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net.contention import NicContention


class TestDisabled:
    def test_zero_service_is_noop(self):
        nic = NicContention(np.array([0, 0, 1]), service_time=0.0)
        assert nic.inject(0, 5.0) == 5.0
        assert nic.inject(1, 5.0) == 5.0  # same node, same instant: no queueing


class TestEnabled:
    def test_serialises_same_node(self):
        nic = NicContention(np.array([0, 0]), service_time=1.0)
        t1 = nic.inject(0, 10.0)
        t2 = nic.inject(1, 10.0)
        assert t1 == 11.0
        assert t2 == 12.0  # queued behind rank 0's message

    def test_independent_nodes(self):
        nic = NicContention(np.array([0, 1]), service_time=1.0)
        assert nic.inject(0, 10.0) == 11.0
        assert nic.inject(1, 10.0) == 11.0

    def test_idle_port_no_backlog(self):
        nic = NicContention(np.array([0]), service_time=1.0)
        nic.inject(0, 0.0)
        # Long after the port freed: no residual delay.
        assert nic.inject(0, 100.0) == 101.0

    def test_monotone_departures_per_node(self):
        nic = NicContention(np.array([0, 0, 0]), service_time=0.5)
        times = [nic.inject(r, 1.0) for r in (0, 1, 2)]
        assert times == sorted(times)
        assert times[2] == pytest.approx(2.5)

    def test_negative_service_rejected(self):
        with pytest.raises(ConfigurationError):
            NicContention(np.array([0]), service_time=-1.0)

    def test_empty_ranks_ok(self):
        nic = NicContention(np.array([], dtype=np.int64), service_time=1.0)
        assert nic.port_free == []


def _reference_ports(rank_nodes, service_time, calls):
    """The model's definition, written out: three lines per message
    (and nothing at all when the service time is zero)."""
    if service_time == 0:
        return [now for _rank, now in calls]
    port_free = [0.0] * (max(rank_nodes) + 1)
    out = []
    for rank, now in calls:
        start = max(now, port_free[rank_nodes[rank]])
        depart = start + service_time
        port_free[rank_nodes[rank]] = depart
        out.append(depart)
    return out


_times = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)


class TestAgainstReferenceFormula:
    @given(
        rank_nodes=st.lists(st.integers(0, 5), min_size=1, max_size=12),
        service_time=st.sampled_from([0.0, 1e-7, 0.25, 3.0]),
        calls=st.lists(st.tuples(st.integers(0, 11), _times), max_size=60),
        as_array=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_exactly(
        self, rank_nodes, service_time, calls, as_array
    ):
        calls = [(rank % len(rank_nodes), now) for rank, now in calls]
        nic = NicContention(
            np.array(rank_nodes) if as_array else rank_nodes, service_time
        )
        got = [nic.inject(rank, now) for rank, now in calls]
        assert got == _reference_ports(rank_nodes, service_time, calls)
        assert all(type(t) is float for t in got)

    @given(calls=st.lists(st.tuples(st.integers(0, 2), _times), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_zero_service_time_is_exact_noop(self, calls):
        nic = NicContention([0, 0, 1], service_time=0.0)
        for rank, now in calls:
            assert nic.inject(rank, now) == now
        assert nic.port_free == [0.0, 0.0]
