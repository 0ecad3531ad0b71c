"""Reconciliation: idle log == search times == activity trace.

Each worker keeps one record of its idle time, the idle log: one
``(start, end, attempts)`` period per work-discovery session, in true
time.  The result layer derives three views from it — the per-rank
search times, the session statistics and (with ``trace=True``) the
skew-corrected activity trace.  These tests run the real cluster and
prove, for every rank, across the protocol variants, NIC contention on
and off and clock skew on and off:

* the last idle period ends at the rank's ``finish_time``;
* every other period ended with a successful steal;
* ``per_rank_search_time[r]`` is the sum of the rank's periods;
* ``busy_time(r, finish) + search_time(r) == finish_time(r)``: active
  and idle time partition the rank's run, the identity any split of
  the idle time into its parts must sum to.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.config import WorkStealingConfig
from repro.sim.cluster import Cluster
from repro.uts.params import T3XS
from repro.ws.results import RunResult

PROTOCOLS = {
    "steal": dict(),
    "forward": dict(protocol="forward", forward_ttl=3),
    "regions": dict(regions=4),
    "lifelines": dict(lifelines=2),
}

CASES = [
    pytest.param(
        dict(
            PROTOCOLS[proto],
            nic_service_time=2e-7 if nic else 0.0,
            clock_skew_std=1e-4 if skew else 0.0,
        ),
        id=f"{proto}-nic{int(nic)}-skew{int(skew)}",
    )
    for proto, nic, skew in itertools.product(
        PROTOCOLS, (False, True), (False, True)
    )
]


def _run(**kw):
    cfg = WorkStealingConfig(
        tree=T3XS, nranks=kw.pop("nranks", 16), trace=True, seed=2, **kw
    )
    outcome = Cluster(cfg).run()
    return outcome, RunResult.from_outcome(outcome)


@pytest.mark.parametrize("case", CASES)
def test_idle_log_reconciles(case):
    outcome, result = _run(**case)
    lifelines = case.get("lifelines", 0) > 0
    for w in outcome.workers:
        r = w.rank
        starts, ends = w.idle_starts, w.idle_ends
        assert len(starts) == len(ends) == len(w.idle_attempts) >= 1
        assert ends[-1] == w.finish_time
        assert len(ends) - 1 == w.successful_steals
        assert all(s <= e for s, e in zip(starts, ends))
        if lifelines:
            # A request sent after a lifeline push already woke the
            # rank belongs to no period.
            assert sum(w.idle_attempts) <= w.steal_requests_sent
        else:
            assert sum(w.idle_attempts) == w.steal_requests_sent

        search = sum(e - s for s, e in zip(starts, ends))
        assert result.per_rank_search_time[r] == search
        busy = result.trace.busy_time(r, w.finish_time)
        assert busy + search == pytest.approx(w.finish_time, rel=1e-12)

    assert result.sessions.count == sum(
        len(w.idle_starts) for w in outcome.workers
    )
    assert result.sessions.successful == result.successful_steals


def test_single_rank():
    outcome, result = _run(nranks=1)
    (w,) = outcome.workers
    assert w.idle_ends == [w.finish_time]
    assert result.trace.busy_time(0, w.finish_time) + result.search_time_total == (
        pytest.approx(w.finish_time, rel=1e-12)
    )
