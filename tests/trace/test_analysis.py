"""TraceAnalysis unit tests plus the trace/counter differential test.

The differential test is the load-bearing one: the structured event
stream is recorded independently of the counters the workers aggregate
into :class:`~repro.ws.results.RunResult`, so for every selector in
the registry the two views of the same run must agree exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import registry
from repro.errors import TraceError
from repro.sim.cluster import Cluster
from repro.trace.analysis import TraceAnalysis
from repro.trace.events import (
    EV_LIFELINE_PUSH,
    EV_LIFELINE_QUIESCE,
    EV_LIFELINE_WAKE,
    EV_PUSH_RECV,
    EV_SERVE,
    EV_STEAL_FAIL,
    EV_STEAL_OK,
    EV_STEAL_SENT,
    EV_VICTIM_DRAW,
    EventTrace,
)
from repro.uts.params import T3XS
from repro.ws.results import RunResult
from repro.ws.runner import run_uts


def _analysis(*rank_events) -> TraceAnalysis:
    return TraceAnalysis(EventTrace([list(evs) for evs in rank_events]))


class TestCounters:
    def test_basic_counts(self):
        a = _analysis(
            [
                (0.0, EV_STEAL_SENT, 1, 0),
                (1.0, EV_STEAL_FAIL, 1, 0),
                (2.0, EV_STEAL_SENT, 1, 0),
                (3.0, EV_STEAL_OK, 1, 9),
            ],
            [(0.5, EV_SERVE, 0, 9)],
        )
        assert a.steal_requests == 2
        assert a.failed_steals == 1
        assert a.successful_steals == 1
        assert a.requests_served == 1
        assert a.nodes_received == 9
        assert a.nodes_sent == 9
        assert a.steal_success_rate() == pytest.approx(0.5)

    def test_success_rate_nan_without_attempts(self):
        a = _analysis([], [])
        assert np.isnan(a.steal_success_rate())

    def test_push_traffic_counts_as_node_movement(self):
        a = _analysis(
            [(1.0, EV_LIFELINE_PUSH, 1, 4)],
            [(1.5, EV_PUSH_RECV, 0, 4)],
        )
        assert a.nodes_sent == 4
        assert a.nodes_received == 4


class TestReplyLatencies:
    def test_pairs_request_with_next_reply(self):
        a = _analysis(
            [
                (0.0, EV_STEAL_SENT, 1, 0),
                (0.25, EV_STEAL_FAIL, 1, 0),
                (1.0, EV_STEAL_SENT, 1, 0),
                (1.75, EV_STEAL_OK, 1, 3),
            ]
        )
        assert a.reply_latencies().tolist() == [0.25, 0.75]

    def test_trailing_unmatched_request_ignored(self):
        a = _analysis([(0.0, EV_STEAL_SENT, 1, 0)])
        assert a.reply_latencies().size == 0

    def test_overlapping_requests_raise(self):
        a = _analysis(
            [(0.0, EV_STEAL_SENT, 1, 0), (0.5, EV_STEAL_SENT, 2, 0)]
        )
        with pytest.raises(TraceError, match="overlapping"):
            a.reply_latencies()

    def test_orphan_reply_raises(self):
        a = _analysis([(0.5, EV_STEAL_OK, 1, 3)])
        with pytest.raises(TraceError, match="no\\s+outstanding"):
            a.reply_latencies()

    def test_wake_delivery_is_not_a_reply(self):
        # A quiescent rank woken by a lifeline push receives work with
        # no outstanding request; that steal_ok carries no latency.
        a = _analysis(
            [
                (0.0, EV_STEAL_SENT, 1, 0),
                (0.5, EV_STEAL_FAIL, 1, 0),
                (1.0, EV_LIFELINE_QUIESCE, 0, 0),
                (2.0, EV_LIFELINE_WAKE, 2, 0),
                (2.0, EV_STEAL_OK, 2, 6),
            ]
        )
        assert a.reply_latencies().tolist() == [0.5]


class TestChains:
    def test_runs_split_by_success(self):
        a = _analysis(
            [
                (0.0, EV_STEAL_FAIL, 1, 0),
                (1.0, EV_STEAL_FAIL, 2, 0),
                (2.0, EV_STEAL_OK, 3, 1),
                (3.0, EV_STEAL_FAIL, 1, 0),
            ]
        )
        assert a.failed_chains() == [2, 1]

    def test_no_fails_no_chains(self):
        assert _analysis([(0.0, EV_STEAL_OK, 1, 1)]).failed_chains() == []


class TestDistances:
    def test_requires_placement(self):
        a = _analysis([(0.0, EV_VICTIM_DRAW, 1, 1)])
        with pytest.raises(TraceError, match="[Pp]lacement"):
            a.draw_distances()

    def test_distances_from_run_placement(self):
        cfg = dict(tree=T3XS, nranks=8, selector="tofu", event_trace=True)
        from repro.core.config import WorkStealingConfig

        outcome = Cluster(WorkStealingConfig(**cfg)).run()
        result = RunResult.from_outcome(outcome)
        a = TraceAnalysis(result.events, placement=outcome.placement)
        d = a.draw_distances()
        assert d.size == result.events.count(EV_VICTIM_DRAW)
        assert (d >= 0).all() and np.isfinite(d).all()


# ----------------------------------------------------------------------
# Differential test: event-stream counts == worker counters, for every
# selector the registry knows (pattern entries pinned to a parameter).
# ----------------------------------------------------------------------

_PATTERN_ARGS = {"skew[<alpha>]": "skew[1.5]", "hier[<p_near>]": "hier[0.75]",
                 "latskew[<alpha>]": "latskew[1.5]",
                 "adapt-eps[<eps>]": "adapt-eps[0.1]",
                 "adapt-sr[<decay>]": "adapt-sr[0.9]",
                 "adapt-backoff[<fails>]": "adapt-backoff[2]"}


def _concrete_selectors() -> list[str]:
    return [
        _PATTERN_ARGS.get(name, name) for name in registry.available("selector")
    ]


@pytest.mark.parametrize("selector", _concrete_selectors())
def test_trace_counts_match_result_counters(selector):
    result = run_uts(
        tree=T3XS, nranks=8, selector=selector, event_trace=True
    )
    a = TraceAnalysis(result.events)
    assert a.steal_requests == result.steal_requests
    assert a.failed_steals == result.failed_steals
    assert a.successful_steals == result.successful_steals
    assert a.nodes_received == result.nodes_stolen
    # Conservation: every node a victim packaged arrived at a thief.
    assert a.nodes_sent == a.nodes_received
    # Every request was drawn from the selector first.
    assert a.events.count(EV_VICTIM_DRAW) == a.steal_requests
    # And every completed attempt produced a latency sample.
    assert a.reply_latencies().size == a.successful_steals + a.failed_steals


def test_trace_counts_match_lifeline_counters():
    result = run_uts(
        tree=T3XS, nranks=8, selector="rand", lifelines=2, event_trace=True
    )
    a = TraceAnalysis(result.events)
    assert a.steal_requests == result.steal_requests
    assert a.failed_steals == result.failed_steals
    assert a.successful_steals == result.successful_steals
    # Steals + push merges together account for all received nodes.
    assert a.nodes_received == result.nodes_stolen
    assert a.nodes_sent == a.nodes_received
    # reply_latencies must tolerate push-wake deliveries.
    a.reply_latencies()


def test_lifeline_episode_counts_match_workers():
    from repro.core.config import WorkStealingConfig

    cfg = WorkStealingConfig(
        tree=T3XS, nranks=8, selector="rand", lifelines=2, event_trace=True
    )
    outcome = Cluster(cfg).run()
    events = EventTrace.from_streams(outcome.event_streams)
    workers = outcome.workers
    assert events.count(EV_LIFELINE_QUIESCE) == sum(
        w.quiesce_episodes for w in workers
    )
    assert events.count(EV_LIFELINE_WAKE) == sum(
        w.lifeline_wakeups for w in workers
    )
    assert events.count(EV_LIFELINE_PUSH) == sum(
        w.lifeline_pushes for w in workers
    )
