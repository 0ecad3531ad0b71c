"""Property tests tying traces, clock skew and the latency metric.

Complements ``test_metric_properties.py`` (SL/EL monotonicity and
symmetry): here the properties are the ones the *trace* layer must
uphold for the metric to be meaningful —

* SL(x) <= 1 - EL(x): occupancy ``x`` is first reached no later than
  it is last sustained, so the two latency curves never cross;
* the clock-skew adjustment of ``ActivityTrace.from_idle_log`` is an
  exact round trip: idle logs stamped on skewed clocks and corrected by
  the same offsets give the unskewed trace, and therefore its latency
  profile;
* a zero offset vector is the identity.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import OccupancyCurve, latency_profile
from repro.core.tracing import ActivityTrace

_GRID = 1024


@st.composite
def grid_traces(draw):
    """Alternating per-rank traces on a 1/1024 grid of [0, T].

    The grid keeps skew arithmetic exactly representable so the
    round-trip properties can assert tight tolerances.
    """
    nranks = draw(st.integers(min_value=1, max_value=5))
    total_time = draw(st.floats(min_value=8.0, max_value=64.0))
    transitions = []
    for _ in range(nranks):
        n = draw(st.integers(min_value=0, max_value=3))
        ticks = sorted(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=_GRID),
                    min_size=2 * n,
                    max_size=2 * n,
                    unique=True,
                )
            )
        )
        times = np.array(ticks, dtype=np.float64) * (total_time / _GRID)
        states = np.array([k % 2 == 0 for k in range(len(ticks))])
        transitions.append((times, states))
    return ActivityTrace(transitions), nranks, total_time


@st.composite
def idle_logs(draw):
    """Per-rank idle periods on a 1/1024 grid of [0, T], the last one
    ending at T: what ``ActivityTrace.from_idle_log`` reads."""
    nranks = draw(st.integers(min_value=1, max_value=5))
    total_time = draw(st.floats(min_value=8.0, max_value=64.0))
    starts, ends = [], []
    for _ in range(nranks):
        n = draw(st.integers(min_value=1, max_value=3))
        ticks = sorted(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=_GRID - 1),
                    min_size=2 * n - 1,
                    max_size=2 * n - 1,
                    unique=True,
                )
            )
        )
        times = [t * (total_time / _GRID) for t in ticks] + [total_time]
        starts.append(times[0::2])
        ends.append(times[1::2])
    return starts, ends, nranks, total_time


def _from_log(log, offsets=None) -> ActivityTrace:
    starts, ends, nranks, _ = log
    if offsets is None:
        offsets = np.zeros(nranks)
    return ActivityTrace.from_idle_log(starts, ends, offsets)


def _offsets(draw, nranks):
    return np.array(
        draw(
            st.lists(
                st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
                min_size=nranks,
                max_size=nranks,
            )
        )
    )


@given(grid_traces(), st.data())
@settings(max_examples=100, deadline=None)
def test_sl_plus_el_never_exceeds_one(case, data):
    trace, nranks, total = case
    curve = OccupancyCurve(trace, nranks, total)
    x = data.draw(st.floats(min_value=0.01, max_value=1.0))
    sl = curve.starting_latency(x)
    el = curve.ending_latency(x)
    # Both defined or both undefined: reached iff sustained.
    assert (sl is None) == (el is None)
    if sl is not None:
        assert sl <= 1.0 - el + 1e-12


@given(grid_traces())
@settings(max_examples=100, deadline=None)
def test_profile_curves_never_cross(case):
    trace, nranks, total = case
    profile = latency_profile(trace, nranks, total)
    reached = ~np.isnan(profile.starting)
    assert (reached == ~np.isnan(profile.ending)).all()
    assert (
        profile.starting[reached] <= 1.0 - profile.ending[reached] + 1e-12
    ).all()


@given(idle_logs(), st.data())
@settings(max_examples=100, deadline=None)
def test_skew_round_trip_is_identity(log, data):
    nranks = log[2]
    back = _from_log(log, _offsets(data.draw, nranks))
    true = _from_log(log)
    for rank in range(nranks):
        assert np.allclose(
            back.transitions[rank][0], true.transitions[rank][0],
            rtol=0.0, atol=1e-9,
        )
        assert (
            back.transitions[rank][1] == true.transitions[rank][1]
        ).all()


@given(idle_logs())
@settings(max_examples=50, deadline=None)
def test_zero_skew_is_exact_identity(log):
    """Zero offsets give the idle-log times themselves as the edges:
    rank 0 from 0, every other rank from its first period's end."""
    starts, ends, nranks, _ = log
    trace = _from_log(log)
    for rank in range(nranks):
        periods = [t for pair in zip(starts[rank], ends[rank]) for t in pair]
        edges = [0.0, *periods[:-1]] if rank == 0 else periods[1:-1]
        assert trace.transitions[rank][0].tolist() == edges


@given(idle_logs(), st.data())
@settings(max_examples=50, deadline=None)
def test_correction_restores_latency_profile(log, data):
    """The paper's pipeline: skewed raw trace -> corrected -> metric.

    Correcting by the true offsets must reproduce the unskewed
    profile up to fp tolerance.
    """
    nranks, total = log[2], log[3]
    ref = latency_profile(_from_log(log), nranks, total)
    got = latency_profile(_from_log(log, _offsets(data.draw, nranks)), nranks, total)
    assert np.allclose(ref.starting, got.starting, equal_nan=True, atol=1e-9)
    assert np.allclose(ref.ending, got.ending, equal_nan=True, atol=1e-9)
