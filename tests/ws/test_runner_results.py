"""Tests for the public run API and result refinement."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.config import WorkStealingConfig
from repro.errors import ReproError
from repro.sim.cluster import Cluster
from repro.uts.params import T3XS
from repro.uts.sequential import sequential_count
from repro.ws import RunResult, run_uts

SEQ = sequential_count(T3XS)


class TestRunApi:
    def test_kwargs_form(self):
        r = run_uts(tree=T3XS, nranks=4)
        assert isinstance(r, RunResult)
        assert r.total_nodes == SEQ.total_nodes

    def test_config_form(self):
        cfg = WorkStealingConfig(tree=T3XS, nranks=4, selector="rand")
        r = run_uts(cfg)
        assert r.selector == "rand"

    def test_mixing_forms_rejected(self):
        cfg = WorkStealingConfig(tree=T3XS, nranks=4)
        with pytest.raises(TypeError):
            run_uts(cfg, nranks=8)

    def test_missing_args_rejected(self):
        with pytest.raises(TypeError):
            run_uts(tree=T3XS)


class TestFinishedRunIsFreed:
    """A finished run must be released by reference counting alone:
    back-to-back runs (a sweep, the ledger's fixed window) otherwise
    pile up whole simulations until a gen-2 collection."""

    @pytest.mark.parametrize(
        "kw",
        [
            dict(),
            dict(nic_service_time=1e-7, trace=True, event_trace=True),
            dict(lifelines=2, selector="adapt-eps[0.2]"),
            dict(protocol="forward", regions=4),
        ],
        ids=["plain", "nic-traced", "lifelines", "forward"],
    )
    def test_no_cyclic_garbage_survives_run_uts(self, kw, monkeypatch):
        refs = []
        run = Cluster.run

        def recording_run(engine):
            outcome = run(engine)
            # Workers are slotted (no weakrefs); each owns its stack
            # and selector outright, so those dying means it died.
            refs.append(weakref.ref(engine))
            refs.extend(weakref.ref(w.stack) for w in outcome.workers)
            refs.extend(weakref.ref(w.selector) for w in outcome.workers)
            return outcome

        monkeypatch.setattr(Cluster, "run", recording_run)
        gc.collect()
        gc.disable()
        try:
            result = run_uts(tree=T3XS, nranks=16, **kw)
            assert len(refs) > 2 * 16
            assert result.total_nodes == SEQ.total_nodes
            assert [r for r in refs if r() is not None] == []
        finally:
            gc.enable()


class TestSequentialBaseline:
    """A run's ``T1`` is extrapolated from the tree's node count."""

    def test_matches_node_count(self):
        r = run_uts(tree=T3XS, nranks=4, node_time=1e-6)
        assert r.baseline_time == pytest.approx(SEQ.total_nodes * 1e-6)

    def test_scales_with_granularity(self):
        coarse = run_uts(tree=T3XS, nranks=4, compute_rounds=4)
        fine = run_uts(tree=T3XS, nranks=4)
        assert coarse.baseline_time == pytest.approx(4 * fine.baseline_time)

    def test_close_to_actual_single_rank_run(self):
        r = run_uts(tree=T3XS, nranks=1)
        assert r.total_time == pytest.approx(r.baseline_time, rel=0.01)


class TestRunResult:
    @pytest.fixture(scope="class")
    def result(self):
        return run_uts(tree=T3XS, nranks=8, selector="rand", trace=True)

    def test_headline_metrics(self, result):
        assert result.speedup > 1.0
        assert 0.0 < result.efficiency <= 1.2
        assert result.nodes_per_second > 0

    def test_default_baseline_is_extrapolation(self, result):
        assert result.baseline_time == pytest.approx(
            result.total_nodes * 1e-6
        )

    def test_steal_accounting(self, result):
        assert result.successful_steals > 0
        assert result.nodes_stolen > 0
        assert (
            result.failed_steals + result.successful_steals
            <= result.steal_requests
        )

    def test_per_rank_arrays(self, result):
        assert result.per_rank_nodes.shape == (8,)
        assert result.per_rank_nodes.sum() == result.total_nodes
        assert result.per_rank_search_time.shape == (8,)
        assert result.mean_search_time == pytest.approx(
            result.per_rank_search_time.mean()
        )

    def test_sessions(self, result):
        assert result.sessions.count >= 7
        assert result.mean_session_duration >= 0.0

    def test_occupancy_and_profile(self, result):
        curve = result.occupancy_curve()
        assert 0 < curve.max_workers <= 8
        profile = result.latency_profile()
        assert profile.occupancies.shape == profile.starting.shape
        # Profile is cached.
        assert result.latency_profile() is profile
        custom = result.latency_profile(np.array([0.5]))
        assert custom.occupancies.tolist() == [0.5]

    def test_summary_contains_label(self, result):
        assert "rand/one" in result.summary()

    def test_untraced_run_has_no_profile(self):
        r = run_uts(tree=T3XS, nranks=4)
        assert r.trace is None
        with pytest.raises(ReproError):
            r.occupancy_curve()
        with pytest.raises(ReproError):
            r.latency_profile()

    def test_skew_corrected_trace_valid(self):
        r = run_uts(
            tree=T3XS, nranks=8, trace=True, clock_skew_std=1e-4, seed=3
        )
        # The corrected trace must fit within the run and validate.
        curve = r.occupancy_curve()
        assert curve.max_workers >= 1
