"""Golden determinism contract of the event-tracing subsystem.

Two guarantees, both on the paper's Fig-2 configuration (T3M, 32
ranks):

1. identical configs produce *byte-identical* event streams — the
   simulator is deterministic and the trace encoding is exact;
2. tracing is observationally free — turning ``event_trace`` on must
   not change the simulation (same RunResult, same event count, same
   fingerprint), because observability that perturbs the run would
   invalidate every cached result.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import experiment_config
from repro.core.config import FINGERPRINT_EXCLUDED_FIELDS
from repro.sim.cluster import Cluster
from repro.trace.events import EventTrace
from repro.ws.results import RunResult


def _fig02_config(**overrides):
    return experiment_config("T3M", 32, selector="reference", **overrides)


@pytest.fixture(scope="module")
def traced_pair():
    """Two independent traced runs plus one untraced run of Fig 2."""
    runs = []
    for _ in range(2):
        cfg = _fig02_config(trace=True, event_trace=True)
        runs.append(Cluster(cfg).run())
    plain = Cluster(_fig02_config()).run()
    return runs, plain


def test_event_streams_byte_identical(traced_pair):
    (first, second), _plain = traced_pair
    a = EventTrace.from_streams(first.event_streams)
    b = EventTrace.from_streams(second.event_streams)
    blob_a, blob_b = a.canonical_bytes(), b.canonical_bytes()
    assert len(a) > 0
    assert blob_a == blob_b


def test_tracing_does_not_change_the_run(traced_pair):
    (traced, _), plain = traced_pair
    assert traced.events_processed == plain.events_processed
    assert traced.total_nodes == plain.total_nodes
    assert traced.total_time == plain.total_time
    ra = RunResult.from_outcome(traced)
    rb = RunResult.from_outcome(plain)
    assert ra.steal_requests == rb.steal_requests
    assert ra.failed_steals == rb.failed_steals
    assert ra.successful_steals == rb.successful_steals


def test_run_result_json_invariant_under_event_trace():
    # trace=False keeps the serialized form comparable (the activity
    # trace *is* serialized; the event stream deliberately is not).
    on = RunResult.from_outcome(
        Cluster(_fig02_config(event_trace=True)).run()
    )
    off = RunResult.from_outcome(Cluster(_fig02_config()).run())
    assert on.events is not None
    assert off.events is None
    assert on.to_json() == off.to_json()


def test_fingerprint_invariant_under_trace_flags():
    base = _fig02_config()
    for kwargs in (
        dict(event_trace=True),
        dict(trace=True, event_trace=True),
    ):
        cfg = _fig02_config(**kwargs)
        if "trace" in kwargs:
            # `trace` itself is part of the fingerprint (pre-existing
            # contract); compare against the matching baseline.
            assert cfg.fingerprint() == _fig02_config(trace=True).fingerprint()
        else:
            assert cfg.fingerprint() == base.fingerprint()


def test_excluded_fields_are_the_observationally_inert_knobs():
    # Trace knobs only add data; the engine knobs select nothing.
    # Neither may change what a fingerprint caches.
    assert FINGERPRINT_EXCLUDED_FIELDS == frozenset(
        {
            "event_trace",
            "engine",
            "shards",
            "shard_workers",
        }
    )
