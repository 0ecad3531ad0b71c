"""Reconciliation: selector feedback == worker counters == event trace.

The adaptive selector family (:mod:`repro.select`) is driven entirely
by the ``notify(victim, success)`` stream the workers emit.  A failure
path that forgets to notify would silently bias every adaptive
strategy, and nothing else would catch it — the run still completes.
These tests wrap the configured selector in a counting shim, run the
real cluster, and prove that for every worker and in aggregate:

* ``notify(success=False)`` calls == ``failed_steals`` counter ==
  ``EV_STEAL_FAIL`` events == total length of TraceAnalysis failure
  chains;
* ``notify(success=True)`` calls == ``successful_steals`` counter ==
  ``EV_STEAL_OK`` events;

across the plain resend loop, the lifeline quiesce path and both
steal-amount regimes of the adaptive policy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import registry
from repro.core.config import WorkStealingConfig
from repro.core.victim import SelectorFactory, VictimSelector
from repro.sim.cluster import Cluster
from repro.trace.analysis import TraceAnalysis
from repro.uts.params import T3XS


class _CountingSelector(VictimSelector):
    def __init__(self, inner: VictimSelector):
        self._inner = inner
        self.ok = 0
        self.fail = 0

    def next_victim(self) -> int:
        return self._inner.next_victim()

    def notify(self, victim: int, success: bool) -> None:
        if success:
            self.ok += 1
        else:
            self.fail += 1
        self._inner.notify(victim, success)


class _CountingFactory(SelectorFactory):
    """Wraps a real factory; remembers every per-rank state it makes."""

    def __init__(self, inner: SelectorFactory):
        self._inner = inner
        self.name = inner.name
        self.needs_placement = inner.needs_placement
        self.states: dict[int, _CountingSelector] = {}

    def make(self, rank, nranks, placement=None, seed=0):
        state = _CountingSelector(
            self._inner.make(rank, nranks, placement, seed=seed)
        )
        self.states[rank] = state
        return state


def _run(**kw):
    factory = _CountingFactory(registry.resolve("selector", kw.pop("selector", "rand")))
    cfg = WorkStealingConfig(
        tree=T3XS,
        nranks=kw.pop("nranks", 16),
        selector=factory,
        event_trace=True,
        **kw,
    )
    outcome = Cluster(cfg).run()
    return factory, outcome


CASES = [
    dict(selector="rand"),
    dict(selector="rand", steal_policy="half"),
    dict(selector="adapt-sr[0.9]", steal_policy="adaptive[2]"),
    dict(selector="adapt-backoff[2]", lifelines=2),
    dict(selector="tofu", lifelines=2, steal_policy="adaptive[2]"),
    dict(selector="adapt-eps[0.2]", nranks=13),
    dict(selector="rand", protocol="forward", forward_ttl=3),
    dict(
        selector="adapt-eps[0.2]",
        protocol="forward",
        regions=4,
        lifelines=2,
    ),
]


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c.values())))
def test_notify_matches_counters_and_trace(case):
    factory, outcome = _run(**dict(case))
    from repro.trace.events import EventTrace

    events = EventTrace.from_streams(outcome.event_streams)
    analysis = TraceAnalysis(events)

    # Per-rank: notify counts == worker counters.
    for worker in outcome.workers:
        state = factory.states[worker.rank]
        assert state.fail == worker.failed_steals, (
            f"rank {worker.rank}: {state.fail} failure notifies vs "
            f"{worker.failed_steals} failed_steals"
        )
        assert state.ok == worker.successful_steals

    # Aggregate: counters == event stream == TraceAnalysis.
    total_fail = sum(s.fail for s in factory.states.values())
    total_ok = sum(s.ok for s in factory.states.values())
    assert total_fail == analysis.failed_steals
    assert total_ok == analysis.successful_steals
    # Failure chains partition the failed steals exactly.
    assert sum(analysis.failed_chains()) == total_fail
    # Per-rank event counts agree too (not just the totals).
    from repro.trace.events import EV_STEAL_FAIL, EV_STEAL_OK

    assert np.array_equal(
        analysis.per_rank_counts(EV_STEAL_FAIL),
        np.array([factory.states[r].fail for r in range(events.nranks)]),
    )
    assert np.array_equal(
        analysis.per_rank_counts(EV_STEAL_OK),
        np.array([factory.states[r].ok for r in range(events.nranks)]),
    )


@pytest.mark.parametrize("selector", ["adapt-sr[0.9]", "lastvictim"])
def test_untraced_notify_matches_failed_steals(selector):
    """Untraced, the loop runs every failed steal inline: a selector
    with feedback keeps its tail on the heap, where each one notifies."""
    factory = _CountingFactory(registry.resolve("selector", selector))
    cfg = WorkStealingConfig(tree=T3XS, nranks=16, selector=factory)
    outcome = Cluster(cfg).run()
    assert outcome.events_walked == 0
    for worker in outcome.workers:
        state = factory.states[worker.rank]
        assert state.fail == worker.failed_steals
        assert state.ok == worker.successful_steals
    assert sum(w.failed_steals for w in outcome.workers) > 0


FORWARD_CASES = [
    dict(selector="rand", protocol="forward", forward_ttl=3),
    dict(selector="rand", protocol="forward", regions=4),
    dict(
        selector="tofu",
        protocol="forward",
        forward_ttl=2,
        regions=4,
        lifelines=2,
        lifeline_graph="ring",
    ),
]


@pytest.mark.parametrize(
    "case", FORWARD_CASES, ids=lambda c: "-".join(map(str, c.values()))
)
def test_forward_counters_reconcile_with_trace(case):
    """Per-rank forwarding counters == event stream, and the chain
    walker's accounting stays inside the relay totals."""
    _factory, outcome = _run(**dict(case))
    from repro.trace.events import (
        EV_FORWARD_SERVE,
        EV_SERVE,
        EV_STEAL_FORWARD,
        EventTrace,
    )

    events = EventTrace.from_streams(outcome.event_streams)
    analysis = TraceAnalysis(events)

    for worker in outcome.workers:
        assert worker.requests_forwarded == events.count(
            EV_STEAL_FORWARD, worker.rank
        )
        assert worker.forwards_served == events.count(
            EV_FORWARD_SERVE, worker.rank
        )
        # requests_served counts direct and forwarded serves alike.
        assert worker.requests_served == events.count(
            EV_SERVE, worker.rank
        ) + events.count(EV_FORWARD_SERVE, worker.rank)

    total_forwarded = sum(w.requests_forwarded for w in outcome.workers)
    assert analysis.forwarded_requests == total_forwarded
    assert total_forwarded > 0, "case never exercised forwarding"
    assert analysis.forwards_served == sum(
        w.forwards_served for w in outcome.workers
    )
    assert analysis.requests_served == sum(
        w.requests_served for w in outcome.workers
    )
    # Every relay the chain walker attributes belongs to a completed
    # attempt; relays of attempts cut off by termination are the only
    # remainder.
    chains = analysis.request_chain_lengths()
    assert 0 <= chains.sum() <= total_forwarded
    assert chains.max(initial=0) <= 10  # bounded by ttl + region hops


def test_notified_work_is_real():
    """A success notify always corresponds to received chunks."""
    factory, outcome = _run(selector="adapt-sr[0.9]")
    total_ok = sum(s.ok for s in factory.states.values())
    assert total_ok == sum(w.successful_steals for w in outcome.workers)
    assert sum(w.chunks_received for w in outcome.workers) >= total_ok
