"""Tests for the latency-weighted selector extension (paper §VII)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.victim import LatencySkewedSelector, selector_by_name
from repro.errors import ConfigurationError
from repro.net.allocation import build_placement
from repro.net.latency import UniformLatency
from repro.net.topology import FlatTopology

PLACEMENT = build_placement(64, "8G")


class TestDistribution:
    def test_normalised_and_complete(self):
        p = LatencySkewedSelector().probabilities(0, PLACEMENT)
        assert p[0] == 0.0
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p[1:] > 0.0)

    def test_cheaper_victims_likelier(self):
        p = LatencySkewedSelector().probabilities(0, PLACEMENT)
        lat = PLACEMENT.latency.row(0)
        others = np.arange(1, 64)
        order = others[np.argsort(lat[others])]
        assert np.all(np.diff(p[order]) <= 1e-12)

    def test_uniform_latency_degenerates_to_uniform(self):
        placement = build_placement(
            16,
            "1/N",
            latency_model=UniformLatency(1e-6),
            topology_factory=lambda n: FlatTopology(n),
        )
        p = LatencySkewedSelector().probabilities(3, placement)
        mask = np.arange(16) != 3
        assert np.allclose(p[mask], 1.0 / 15)

    def test_alpha_zero_uniform(self):
        p = LatencySkewedSelector(0.0).probabilities(0, PLACEMENT)
        assert np.allclose(p[1:], 1.0 / 63)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencySkewedSelector(-1.0)


class TestSelector:
    def test_never_self_and_covers_all(self):
        sel = LatencySkewedSelector().make(0, 64, PLACEMENT, seed=1)
        seen = set()
        for _ in range(20000):
            v = sel.next_victim()
            assert v != 0
            seen.add(v)
        assert seen == set(range(1, 64))

    def test_requires_placement(self):
        with pytest.raises(ConfigurationError):
            LatencySkewedSelector().make(0, 64, None)

    def test_registry(self):
        f = selector_by_name("latskew[2]")
        assert isinstance(f, LatencySkewedSelector)
        assert f.alpha == 2.0

    def test_bad_registry_string(self):
        with pytest.raises(ConfigurationError):
            selector_by_name("latskew[x]")


class TestEndToEnd:
    def test_conservation(self):
        from repro.uts.params import T3XS
        from repro.uts.sequential import sequential_count
        from repro.ws import run_uts

        seq = sequential_count(T3XS)
        r = run_uts(tree=T3XS, nranks=8, selector="latskew[1]")
        assert r.total_nodes == seq.total_nodes

    def test_comparable_to_tofu(self):
        """On the hierarchical model, latency weighting behaves like
        (not wildly worse than) distance weighting."""
        from repro.uts.params import T3XS
        from repro.ws import run_uts

        lat = run_uts(tree=T3XS, nranks=16, selector="latskew[1]", seed=2)
        tofu = run_uts(tree=T3XS, nranks=16, selector="tofu", seed=2)
        assert lat.total_time < tofu.total_time * 2.0
