"""Differential suite: the engine vs the reference oracle, bit for bit.

The engine's contract (`repro.sim.cluster`) is not statistical
equivalence but *bit-identity* with a deliberately plain single-queue
reference (`tests/sim/oracle.py`): same SimOutcome metrics, same
per-rank worker counters, same canonical trace bytes, for every
configuration.  These tests enforce that with one parametrisation per
*physics* axis: the full selector and steal-policy registries,
allocations aligned with node blocks and not, NIC contention on and
off, the protocol variants, adaptive selectors, lifelines, clock skew
with activity traces, non-binomial trees and the SHA-1 backend, and
odd and single rank counts.  Each traced case also runs the engine
untraced, which is where its loop, not the worker, runs the quanta
and the failed steals.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import WorkStealingConfig
from repro.errors import ConfigurationError
from repro.net.latency import UniformLatency
from repro.sim.cluster import Cluster
from repro.uts.params import GEO_S, HYB_S, T3S, T3XS
from repro.ws import run_uts
from repro.ws.results import RunResult
from tests.sim.oracle import oracle_result

SELECTORS = [
    "reference",
    "rand",
    "tofu",
    "hierarchical",
    "lastvictim",
    "skew[1.5]",
    "hier[0.7]",
    "latskew[1.0]",
    "adapt-eps[0.2]",
    "adapt-sr[0.9]",
    "adapt-backoff[2]",
]
POLICIES = ["one", "half", "frac[0.3]", "adaptive[2]"]


def _config(**kw) -> WorkStealingConfig:
    kw.setdefault("tree", T3XS)
    kw.setdefault("nranks", 16)
    kw.setdefault("event_trace", True)
    return WorkStealingConfig(**kw)


_ORACLE_CACHE: dict = {}


def _oracle(cfg: WorkStealingConfig) -> RunResult:
    key = (cfg.fingerprint(), cfg.trace, cfg.event_trace)
    if key not in _ORACLE_CACHE:
        _ORACLE_CACHE[key] = oracle_result(cfg)
    return _ORACLE_CACHE[key]


def assert_identical(cfg: WorkStealingConfig, res: RunResult | None = None):
    """Compare every observable of the oracle's run of ``cfg`` with
    ``res`` (default: the engine's run of it), bit for bit.

    A rank with an event recorder takes the worker's own methods for
    every event, so the engine also runs ``cfg`` untraced — the path
    on which its loop handles quanta and failed steals itself — and
    that run's ``to_dict()`` must match the oracle's too."""
    seq = _oracle(cfg)
    if res is None:
        res = RunResult.from_outcome(Cluster(cfg).run())
    assert seq.to_dict() == res.to_dict()
    if cfg.event_trace:
        untraced = replace(cfg, event_trace=False)
        assert (
            seq.to_dict()
            == RunResult.from_outcome(Cluster(untraced).run()).to_dict()
        )
    if seq.events is not None:
        assert seq.events.canonical_bytes() == res.events.canonical_bytes()
    if seq.trace is not None:
        assert res.trace is not None
        for (ta, sa), (tb, sb) in zip(
            seq.trace.transitions, res.trace.transitions
        ):
            assert np.array_equal(ta, tb)
            assert np.array_equal(sa, sb)


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


class TestDifferentialMatrix:
    """The core bit-identity guarantee across the strategy registries."""

    @pytest.mark.parametrize("selector", SELECTORS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_selector_policy_matrix(self, selector, policy):
        assert_identical(_config(selector=selector, steal_policy=policy))

    @pytest.mark.parametrize("alloc", ["1/N", "8RR", "8G", "4G"])
    def test_allocations_aligned_and_not(self, alloc):
        assert_identical(_config(allocation=alloc))

    def test_lifelines(self):
        assert_identical(_config(lifelines=2))

    @pytest.mark.parametrize(
        "kw",
        [
            dict(tree=GEO_S),
            dict(tree=HYB_S),
            dict(rng_backend="sha1"),
            dict(poll_interval=100),
            dict(tree=GEO_S, lifelines=2),
        ],
        ids=["GEO_S", "HYB_S", "sha1", "poll100", "GEO_S-lifelines"],
    )
    def test_trees_backends_and_long_quanta(self, kw):
        """Geometric and hybrid trees, the SHA-1 backend and quanta
        past the array cutoff (no other row leaves binomial+SplitMix
        at the default poll interval)."""
        assert_identical(_config(nranks=8, trace=True, **kw))

    def test_clock_skew_and_activity_trace(self):
        assert_identical(_config(clock_skew_std=1e-7, trace=True))

    def test_uniform_latency_model(self):
        assert_identical(_config(latency_model=UniformLatency(5e-6)))

    def test_odd_rank_count(self):
        assert_identical(_config(nranks=13))

    def test_single_rank(self):
        assert_identical(_config(nranks=1))


NIC = 5e-7  # five times the calibrated cost: queues actually form

NIC_VARIANTS = {
    "plain": dict(),
    "lifelines": dict(lifelines=2),
    "fwd-regions": dict(protocol="forward", forward_ttl=3, regions=4),
    "skew-trace": dict(clock_skew_std=1e-7, trace=True),
    # Some regions hold one rank, whose failed steals the loop runs.
    "regions-peerless": dict(regions=16),
}


class TestNicContentionDifferential:
    """NIC contention is port arithmetic the engine writes out in
    ``Cluster.send`` and in the loop's inline deny and request; the
    oracle makes the same two ``NicContention.inject`` calls on its
    single queue.  Ranks per node (1/N vs 8 per node), odd rank counts
    and every protocol feature that adds sends must leave metrics and
    trace bytes identical."""

    @pytest.mark.parametrize("alloc", ["1/N", "8RR", "8G"])
    @pytest.mark.parametrize(
        "selector", ["reference", "tofu", "adapt-eps[0.2]", "adapt-backoff[2]"]
    )
    @pytest.mark.parametrize("policy", ["one", "half", "adaptive[2]"])
    def test_alloc_selector_policy(self, alloc, selector, policy):
        assert_identical(
            _config(
                nranks=24,
                allocation=alloc,
                selector=selector,
                steal_policy=policy,
                nic_service_time=NIC,
            )
        )

    @pytest.mark.parametrize("alloc", ["1/N", "8RR", "8G"])
    @pytest.mark.parametrize("variant", list(NIC_VARIANTS))
    @pytest.mark.parametrize("nranks", [24, 33])
    def test_protocol_variants(self, alloc, variant, nranks):
        assert_identical(
            _config(
                nranks=nranks,
                allocation=alloc,
                selector="rand",
                steal_policy="half",
                nic_service_time=NIC,
                **NIC_VARIANTS[variant],
            )
        )

    def test_default_engine_with_calibrated_nic(self):
        # The ladder's own path: run_uts, the calibrated 1e-7 s service
        # time, 8 ranks per node.
        cfg = _config(nranks=32, allocation="8RR", nic_service_time=1e-7)
        assert_identical(cfg, run_uts(cfg))

    def test_contention_changes_the_run(self):
        # Guard against a silently disabled model: NIC on must differ.
        on = _oracle(_config(allocation="8RR", nic_service_time=NIC))
        off = _oracle(_config(allocation="8RR"))
        assert on.total_time != off.total_time


PROTOCOL_CASES = [
    dict(protocol="forward", forward_ttl=3),
    dict(regions=4),
    dict(
        protocol="forward",
        regions=4,
        lifelines=2,
        lifeline_graph="ring",
    ),
    dict(lifelines=3, lifeline_graph="regtree", regions=4),
    # Regions of one rank: those ranks draw from the selector alone,
    # so the loop runs their failed steals and the worker the rest.
    dict(nranks=13, regions=8),
    dict(nranks=13, protocol="forward", regions=8),
]

_PROTOCOL_IDS = [
    "forward3", "regions4", "fwd-reg-ring", "ll-regtree",
    "regions8-peerless", "fwd-regions8-peerless",
]


class TestProtocolDifferential:
    """The protocol extensions ride the same bit-identity contract:
    forwards, region draws and lifeline graphs are rank-local state
    driven by message deliveries, so engine and oracle must produce
    the same bytes."""

    @pytest.mark.parametrize("case", PROTOCOL_CASES, ids=_PROTOCOL_IDS)
    def test_protocol_cases(self, case):
        assert_identical(_config(**case))

    def test_forwarding_composes_with_adaptive_selector(self):
        assert_identical(
            _config(
                selector="adapt-eps[0.2]",
                steal_policy="adaptive[2]",
                protocol="forward",
                regions=4,
            )
        )

    def test_forwarding_non_aligned_allocation(self):
        assert_identical(
            _config(allocation="8RR", protocol="forward", regions=4)
        )

    def test_forwarding_odd_rank_count(self):
        assert_identical(
            _config(nranks=13, protocol="forward", forward_ttl=3, regions=3)
        )

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
        assert _oracle(cfg).requests_forwarded > 0, "forwarding never fired"
        assert_identical(cfg)


class TestAdaptiveDifferential:
    """Feedback-driven selectors must see the *same* notify stream in
    engine and oracle: any divergence in adaptive state shows up here
    as a victim-sequence (hence trace/counter) mismatch.  (Each with
    ``adaptive[2]`` alone is a cell of ``test_selector_policy_matrix``.)"""

    def test_adaptive_with_lifelines(self):
        # Lifeline pushes notify(success=True) for victims the selector
        # never drew; the adaptive state must digest them identically.
        assert_identical(
            _config(
                selector="adapt-backoff[2]",
                steal_policy="adaptive[2]",
                lifelines=2,
            )
        )

    def test_adaptive_policy_non_aligned_allocation(self):
        assert_identical(
            _config(selector="adapt-eps[0.2]", steal_policy="adaptive[2]",
                    allocation="8RR")
        )


class TestRunnerRouting:
    def test_run_uts_matches_oracle(self):
        assert_identical(
            _config(), run_uts(tree=T3XS, nranks=16, event_trace=True)
        )
