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
shapes and RNG backends, and 2 to 40 ranks (one rank through an
``@example``).  Each event-traced draw
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
from repro.sim.cluster import Cluster
from repro.uts.params import T3S, T3XS
from repro.ws import RunResult, run_uts
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


class TestDivergenceReport:
    """A mismatch names where the two runs part, before any shrinking."""

    def test_an_untraced_mismatch_names_its_key_and_the_config(self):
        cfg = _config(selector="rand", event_trace=False)
        other = RunResult.from_outcome(Cluster(cfg.replace(seed=1)).run())
        with pytest.raises(AssertionError) as info:
            assert_identical(cfg, other)
        report = str(info.value)
        assert report.startswith(f"engine != oracle for {cfg.label()}")
        assert "first differing to_dict() key" in report
        # The reruns of cfg itself agree on both sides.
        assert "events (reruns with event_trace=True): all" in report
        assert report.endswith(f"config: {cfg.to_dict()}")

    def test_a_traced_mismatch_names_its_first_event_on_each_side(self):
        cfg = _config(selector="rand")
        other = RunResult.from_outcome(Cluster(cfg.replace(seed=1)).run())
        with pytest.raises(AssertionError) as info:
            assert_identical(cfg, other)
        lines = str(info.value).splitlines()
        (at,) = [i for i, line in enumerate(lines) if "first differing event #" in line]
        assert lines[at + 1].startswith("  oracle t=")
        assert lines[at + 2].startswith("  engine t=")
        assert " rank=" in lines[at + 1] and " rank=" in lines[at + 2]

    def test_an_inline_loop_defect_names_its_first_message(self, monkeypatch):
        # The loop's quanta read the tree's offsets from ``_first``, the
        # ``Worker`` path from its stack: move the root's last child to
        # node 1 in the loop's copy alone.  The traced reruns take the
        # worker's quanta and agree; the delivered messages do not.
        original = Cluster.__init__

        def planted(self, config, max_events=None):
            original(self, config, max_events)
            first = list(self._first)
            first[1] -= 1
            self._first = first

        monkeypatch.setattr(Cluster, "__init__", planted)
        cfg = _config(selector="rand", event_trace=False)
        with pytest.raises(AssertionError) as info:
            assert_identical(cfg)
        lines = str(info.value).splitlines()
        assert "events (reruns with event_trace=True): all" in str(info.value)
        (at,) = [
            i for i, line in enumerate(lines)
            if line.startswith("first differing delivered message #")
        ]
        assert lines[at].endswith("(untraced reruns, no tail walk):")
        assert lines[at + 1].startswith("  oracle t=")
        assert lines[at + 2].startswith("  engine t=")
        assert " -> " in lines[at + 1]
