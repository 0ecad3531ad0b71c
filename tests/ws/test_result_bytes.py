"""Byte pins: the serialised result of a handful of probe runs.

Each probe's ``RunResult.to_json()`` is hashed and compared with a
SHA-256 recorded when the pin was written.  The differential suite
compares the engine with the test oracle, which share the workers and
the result layer; these pins compare the whole pipeline with its own
past, so a refactor of how a worker records its idle time or how the
result layer derives the activity trace, the session statistics and
the search times cannot move a byte unnoticed.

Each probe runs twice in one process: cold, with no tree table held,
and warm, reading the table the cold run left
(:func:`repro.uts.tree.tree_table`); both must give the pinned bytes.

A pin that fails after an intended physics change is re-recorded by
printing ``_digest(PROBES[name])`` for every probe.
"""

from __future__ import annotations

import hashlib

import pytest

import repro.uts.tree as tree_mod
from repro.uts.params import T3S, T3XS
from repro.ws import run_uts

PROBES = {
    "trace-skew": dict(
        tree=T3XS, nranks=16, trace=True, clock_skew_std=1e-4, seed=3
    ),
    "lifelines-trace": dict(
        tree=T3S, nranks=16, lifelines=2, trace=True, clock_skew_std=1e-5,
        seed=1,
    ),
    "forward-regions": dict(tree=T3S, nranks=24, protocol="forward", regions=4),
    "nic": dict(tree=T3XS, nranks=16, nic_service_time=2e-7, trace=True),
    "one-rank": dict(tree=T3XS, nranks=1, trace=True),
    "adapt-eps": dict(
        tree=T3S, nranks=16, selector="adapt-eps[0.2]", steal_policy="half"
    ),
    # The adaptive and region draws read numpy's scalar streams from
    # raw blocks; the engine and the test oracle build the same
    # selectors, so only these pins see a stream that drifts.
    "adapt-sr": dict(tree=T3S, nranks=16, selector="adapt-sr[0.9]"),
    "adapt-backoff": dict(
        tree=T3S, nranks=16, selector="adapt-backoff[2]",
        steal_policy="adaptive[3]",
    ),
    "forward-regions-adapt-sr": dict(
        tree=T3S, nranks=24, protocol="forward", regions=4,
        selector="adapt-sr[0.9]", trace=True,
    ),
    # The near/far draw reads the same raw-block stream, and its tail
    # is walked.
    "hier": dict(tree=T3S, nranks=16, selector="hier[0.9]"),
    # Chunk boundaries: quanta that drain several chunks, one-node
    # chunks, lifeline pushes merged into a non-empty stack, and
    # relayed steals carrying odd-sized chunks.
    "chunk3-poll13": dict(
        tree=T3S, nranks=16, chunk_size=3, poll_interval=13, trace=True
    ),
    "chunk1-poll2": dict(
        tree=T3XS, nranks=16, chunk_size=1, poll_interval=2, trace=True
    ),
    "chunk7-lifelines": dict(
        tree=T3S, nranks=16, chunk_size=7, lifelines=2, trace=True
    ),
    "chunk7-forward-regions": dict(
        tree=T3S, nranks=24, chunk_size=7, protocol="forward", regions=4,
        trace=True,
    ),
}

PINS = {
    "trace-skew": "71bd0d99fe51656246beca531080b5dd86cf1708fc861e0087eeeeb50daa42a7",
    "lifelines-trace": "2cbd654377247f93ce45d565b36aee7e1b015ae24b771f05c2fc17d663734909",
    "forward-regions": "16aecc43f9b1047630d588aa571e73638d7e6b50780994bec9fa8736e0dc4a5c",
    "nic": "5a1d5a2dab82af675e3f572cd317f75bad4ac6de341110ffab34d1c0e8ccb7bf",
    "one-rank": "4c72de0c05e65fc8d604116aea7764f3452a7bbcd9851616a622316542054dc6",
    "adapt-eps": "1ab6f0e6fa3a86682de65bd0b216925f9311c09ee21a2f02dbfcb21c825dc0cf",
    "adapt-sr": "fc468c759dadbbf226986be9fe19b536e8163f8ec3bcb808f8dc2b0a37ef916e",
    "adapt-backoff": "bc6d2164792b07daca348ead15a11561998613c2d224ca1f7ceb4d00bb8a1594",
    "forward-regions-adapt-sr": "79d49754ee3f5eff2fd0698e6997ec1e59316b90b1c7364fb870d9461aa83178",
    "hier": "5406e1597b3927494de46d20e163f31e8c00d3b58391efae8d28e3b87abcf094",
    "chunk3-poll13": "bf2cb11832f5b9cb93c657947dc6072d6d681148f39c67ac9590676b0babf6f6",
    "chunk1-poll2": "ab7afc0426066555b590fa6769f3ceaa6b09435dd54f9b5ebc9f20f453bef8db",
    "chunk7-lifelines": "cc25051e0c3c74ffa30a98787a70027abd1a8630c00e82b01179e7b3593df943",
    "chunk7-forward-regions": "111c25886e9904be18737f294a6b6702624b11f7150c3180375114acd187dab4",
}


def _digest(kw: dict) -> str:
    return hashlib.sha256(run_uts(**kw).to_json().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PROBES))
def test_result_bytes_are_pinned(name, monkeypatch):
    monkeypatch.setattr(tree_mod, "_held", {})
    assert _digest(PROBES[name]) == PINS[name]
    held = dict(tree_mod._held)
    assert _digest(PROBES[name]) == PINS[name]
    assert tree_mod._held == held and len(held) == 1


#: SHA-256 of ``result.events.canonical_bytes()`` for six NIC-off
#: probes run with ``event_trace=True``: the steal-event stream pinned
#: across commits, where ``tests/trace/test_determinism.py`` checks
#: only that two runs of one commit agree.
EVENT_PINS = {
    "lifelines-trace": "a2d4cc228dcc5c8ed1915380670bcb07164aa7f9a8790a7e1d4239fec6e5db95",
    "chunk7-forward-regions": "5149f2d24da8b3641b7076c86cd5fa65a4edb7b2c1e541d7e5c5cf72d0484bf7",
    "adapt-eps": "b894203f4f41de677a2686d9f08cd39438d68356d344360bd21f1fcfd8610963",
    "adapt-sr": "912485217f652f2829a9300910214707356f978fa36814922c4066d7055f7058",
    "adapt-backoff": "275c7aeb7a85081b6aaa480e5e1ed4fc9c24b650725ea44acdb6d2d821802008",
    "forward-regions-adapt-sr": "b90e723a5214e81a97e92591166d2e12167217423efed01631c31e695edb416a",
}


@pytest.mark.parametrize("name", sorted(EVENT_PINS))
def test_event_stream_bytes_are_pinned(name):
    events = run_uts(**PROBES[name], event_trace=True).events
    assert hashlib.sha256(events.canonical_bytes()).hexdigest() == EVENT_PINS[name]
