"""Differential suite: the engine vs the reference oracle, bit for bit.

The engine's contract (`repro.sim.cluster`) is not statistical
equivalence but *bit-identity* with a deliberately plain single-queue
reference (`tests/sim/oracle.py`): same SimOutcome metrics, same
per-rank worker counters, same canonical trace bytes, for every
configuration.  The drawn property
``tests/test_integration_properties.py::test_engine_matches_the_oracle``
enforces that over the whole config space: every registered selector
and steal policy, every allocation and lifeline graph, NIC contention,
the protocol variants, clock skew with activity traces, the tree
shapes and RNG backends, and 1 to 40 ranks.  Each event-traced draw
also runs the engine untraced, which is where its loop, not the
worker, runs the quanta and the failed steals.

What stays here is what a draw cannot state: config validation, the
runner's own entry point, that NIC contention changes a run at all,
and that forwarding fires on a run large enough to relay.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import replace

import pytest

from repro.core.config import WorkStealingConfig
from repro.errors import ConfigurationError
from repro.uts.params import T3S, T3XS
from repro.ws import run_uts
from tests.sim.oracle import assert_identical, oracle_result


def _config(**kw) -> WorkStealingConfig:
    kw.setdefault("tree", T3XS)
    kw.setdefault("nranks", 16)
    kw.setdefault("event_trace", True)
    return WorkStealingConfig(**kw)


class TestConfigValidation:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            _config(engine="warp")

    def test_negative_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            _config(shard_workers=-1)

    def test_engine_knobs_excluded_from_fingerprint(self):
        base = _config()
        assert (
            base.fingerprint()
            == replace(base, engine="sharded", shards=4).fingerprint()
        )

    def test_engine_knobs_select_nothing(self):
        # The compatibility the frozen ledger relies on: its workloads
        # still pass these fields, and get the one in-process loop.
        before = multiprocessing.active_children()
        cfg = _config()
        res = run_uts(
            replace(cfg, engine="sharded", shards=8, shard_workers=2)
        )
        assert multiprocessing.active_children() == before
        assert_identical(cfg, res)

    def test_shard_transport_is_gone(self):
        data = _config().to_dict()
        assert "shard_transport" not in data
        with pytest.raises(ConfigurationError, match="shard_transport"):
            WorkStealingConfig.from_dict({**data, "shard_transport": "pipe"})


NIC = 5e-7  # five times the calibrated cost: queues actually form


class TestNicContentionDifferential:
    def test_default_engine_with_calibrated_nic(self):
        # The ladder's own path: run_uts, the calibrated 1e-7 s service
        # time, 8 ranks per node.
        cfg = _config(nranks=32, allocation="8RR", nic_service_time=1e-7)
        assert_identical(cfg, run_uts(cfg))

    def test_contention_changes_the_run(self):
        # Guard against a silently disabled model: NIC on must differ.
        on = oracle_result(_config(allocation="8RR", nic_service_time=NIC))
        off = oracle_result(_config(allocation="8RR"))
        assert on.total_time != off.total_time


class TestProtocolDifferential:
    def test_forwarding_fires_at_32_ranks(self):
        # T3XS at 16 ranks rarely relays; this case provably does.
        cfg = _config(
            tree=T3S,
            nranks=32,
            protocol="forward",
            forward_ttl=3,
            regions=4,
            lifelines=2,
            lifeline_graph="ring",
        )
        seq = assert_identical(cfg)
        assert seq.requests_forwarded > 0, "forwarding never fired"


class TestRunnerRouting:
    def test_run_uts_matches_oracle(self):
        assert_identical(
            _config(), run_uts(tree=T3XS, nranks=16, event_trace=True)
        )
