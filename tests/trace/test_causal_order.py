"""The merged event stream puts every effect after its cause.

A steal request is logged by its thief (``steal_sent``); the relays
(``steal_forward``, ``b`` = the originating thief) and the victim's
reply (``serve``, ``forward_serve`` or ``deny``, ``a`` = the thief)
are logged by other ranks.  Read in :meth:`EventTrace.merged` order,
each of those must find its thief's request open: sent, and not yet
answered by a ``steal_ok``/``steal_fail`` at the thief.

At zero wire time a request and what it causes share one timestamp,
and ``merged()`` breaks that tie by rank, not by cause, so a lower
rank's relay or reply sorts before the request.  The zero-latency case
is the specification of ROADMAP item 17 (one causal order for every
trace), held as a strict xfail until the engine stamps events with
their pop order; at 1 ns no tie exists and the property already holds.
"""

from __future__ import annotations

import pytest

from repro.net import UniformLatency
from repro.trace.events import (
    EV_DENY,
    EV_FORWARD_SERVE,
    EV_SERVE,
    EV_STEAL_FAIL,
    EV_STEAL_FORWARD,
    EV_STEAL_OK,
    EV_STEAL_SENT,
)
from repro.uts.params import T3XS
from repro.ws import run_uts


def _orphans(events) -> tuple[int, int]:
    """``(effects with no open request, relays)`` in merged order."""
    open_requests: set[int] = set()
    orphans = relays = 0
    for _t, rank, etype, a, b in events.merged():
        if etype == EV_STEAL_SENT:
            open_requests.add(rank)
        elif etype in (EV_STEAL_OK, EV_STEAL_FAIL):
            open_requests.discard(rank)
        elif etype == EV_STEAL_FORWARD:
            relays += 1
            orphans += b not in open_requests
        elif etype in (EV_SERVE, EV_FORWARD_SERVE, EV_DENY):
            orphans += a not in open_requests
    return orphans, relays


@pytest.mark.parametrize(
    "latency",
    [
        pytest.param(
            0.0,
            marks=pytest.mark.xfail(
                strict=True,
                reason="merged() sorts equal times by rank (ROADMAP item 17)",
            ),
        ),
        1e-9,
    ],
)
def test_every_relay_and_reply_follows_its_request(latency):
    for nranks in (3, 8, 16):
        for ttl in (1, 2, 3):
            for seed in range(4):
                result = run_uts(
                    tree=T3XS,
                    nranks=nranks,
                    protocol="forward",
                    forward_ttl=ttl,
                    topology_factory="flat",
                    latency_model=UniformLatency(latency),
                    seed=seed,
                    event_trace=True,
                )
                orphans, relays = _orphans(result.events)
                assert relays > 0
                assert orphans == 0, (nranks, ttl, seed, orphans, relays)
