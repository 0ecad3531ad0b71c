"""Tests for victim selection strategies."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import T3XS, run_uts
from repro.core import registry
from repro.core.victim import (
    DistanceSkewedSelector,
    HierarchicalSelector,
    LastVictimSelector,
    LatencySkewedSelector,
    PowerSkewedSelector,
    RoundRobinSelector,
    UniformRandomSelector,
    skewed_probabilities,
)
from repro.errors import ConfigurationError
from repro.net.allocation import build_placement

PLACEMENT_16 = build_placement(16, "1/N")
PLACEMENT_64 = build_placement(64, "8G")

ALL_FACTORIES = [
    RoundRobinSelector(),
    UniformRandomSelector(),
    DistanceSkewedSelector(),
    PowerSkewedSelector(2.0),
    HierarchicalSelector(),
    LastVictimSelector(),
]


@pytest.mark.parametrize("factory", ALL_FACTORIES, ids=lambda f: f.name)
class TestSelectorContract:
    def test_never_selects_self(self, factory):
        for rank in (0, 7, 15):
            sel = factory.make(rank, 16, PLACEMENT_16, seed=1)
            for _ in range(200):
                assert sel.next_victim() != rank

    def test_victims_in_range(self, factory):
        sel = factory.make(3, 16, PLACEMENT_16, seed=2)
        for _ in range(200):
            assert 0 <= sel.next_victim() < 16

    def test_eventually_covers_all_victims(self, factory):
        sel = factory.make(0, 16, PLACEMENT_16, seed=3)
        seen = {sel.next_victim() for _ in range(3000)}
        assert seen == set(range(1, 16))

    def test_rejects_single_rank(self, factory):
        with pytest.raises(ConfigurationError):
            factory.make(0, 1, PLACEMENT_16)

    def test_rejects_rank_out_of_range(self, factory):
        with pytest.raises(ConfigurationError):
            factory.make(16, 16, PLACEMENT_16)

    def test_deterministic_given_seed(self, factory):
        a = factory.make(2, 16, PLACEMENT_16, seed=9)
        b = factory.make(2, 16, PLACEMENT_16, seed=9)
        assert [a.next_victim() for _ in range(50)] == [
            b.next_victim() for _ in range(50)
        ]


class TestRoundRobin:
    def test_starts_at_neighbour(self):
        sel = RoundRobinSelector().make(3, 8)
        assert sel.next_victim() == 4

    def test_walks_ring_skipping_self(self):
        sel = RoundRobinSelector().make(1, 4)
        victims = [sel.next_victim() for _ in range(6)]
        assert victims == [2, 3, 0, 2, 3, 0]

    def test_rank0_sequence(self):
        sel = RoundRobinSelector().make(0, 4)
        assert [sel.next_victim() for _ in range(4)] == [1, 2, 3, 1]

    def test_continues_after_success(self):
        """The paper: a successful steal does not reset the walk."""
        sel = RoundRobinSelector().make(0, 8)
        sel.next_victim()  # 1
        v = sel.next_victim()  # 2
        sel.notify(v, success=True)
        assert sel.next_victim() == 3

    def test_no_placement_needed(self):
        assert not RoundRobinSelector().needs_placement


class TestUniformRandom:
    def test_distribution_roughly_uniform(self):
        sel = UniformRandomSelector().make(5, 16, seed=0)
        counts = np.zeros(16)
        n = 30000
        for _ in range(n):
            counts[sel.next_victim()] += 1
        assert counts[5] == 0
        expected = n / 15
        others = counts[np.arange(16) != 5]
        assert np.all(np.abs(others - expected) < 5 * np.sqrt(expected))

    def test_different_ranks_independent_streams(self):
        a = UniformRandomSelector().make(0, 16, seed=0)
        b = UniformRandomSelector().make(1, 16, seed=0)
        assert [a.next_victim() for _ in range(20)] != [
            b.next_victim() for _ in range(20)
        ]


class TestSkewedProbabilities:
    """The distribution behind Fig 8."""

    def test_normalised(self):
        p = skewed_probabilities(0, PLACEMENT_16.euclidean.row(0))
        assert p.sum() == pytest.approx(1.0)
        assert p[0] == 0.0

    def test_all_victims_possible(self):
        """The paper preserves 'the ability to steal any process'."""
        p = skewed_probabilities(0, PLACEMENT_16.euclidean.row(0))
        assert np.all(p[1:] > 0.0)

    def test_closer_is_likelier(self):
        rank = 0
        e = PLACEMENT_64.euclidean.row(rank)
        p = skewed_probabilities(rank, e)
        others = np.arange(1, 64)
        # Sort victims by distance; probabilities must be non-increasing.
        order = others[np.argsort(e[others])]
        probs = p[order]
        assert np.all(np.diff(probs) <= 1e-12)

    def test_zero_distance_weight_one(self):
        # Co-located ranks (e = 0) get weight 1 per the paper's formula.
        e = np.array([0.0, 0.0, 2.0, 4.0])
        p = skewed_probabilities(0, e)
        assert p[1] == pytest.approx(1.0 / (1.0 + 0.5 + 0.25))

    def test_alpha_zero_uniform(self):
        e = PLACEMENT_16.euclidean.row(3)
        p = skewed_probabilities(3, e, alpha=0.0)
        assert np.allclose(p[np.arange(16) != 3], 1.0 / 15)

    def test_alpha_sharpens(self):
        e = PLACEMENT_64.euclidean.row(0)
        p1 = skewed_probabilities(0, e, alpha=1.0)
        p3 = skewed_probabilities(0, e, alpha=3.0)
        nearest = int(np.argmin(np.where(np.arange(64) == 0, np.inf, e)))
        assert p3[nearest] > p1[nearest]

    def test_degenerate_rejected(self):
        with pytest.raises(ConfigurationError):
            skewed_probabilities(0, np.array([0.0]))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
    def test_weights_are_the_masked_formulas_bytes(self, alpha):
        # The weights are divided out at the positive distances alone;
        # the formula over the whole row, division warnings off, is the
        # reference, to the byte.
        rows = [
            np.array([0.0, 0.0, 2.0, 4.0, 0.0, 3.5]),
            PLACEMENT_64.euclidean.row(5),
            build_placement(64, "8RR").euclidean.row(9),
        ]
        for rank, e in enumerate(rows):
            assert (e == 0.0).sum() > 1
            with np.errstate(divide="ignore"):
                w = np.where(e > 0.0, 1.0 / np.power(e, alpha), 1.0)
            w[rank] = 0.0
            expected = w / w.sum()
            got = skewed_probabilities(rank, e, alpha)
            assert got.tobytes() == expected.tobytes()

    def test_nan_weights_rejected(self):
        # NaN > 0 and NaN <= 0 are both False: the total must be checked
        # to be finite and positive, not merely "not <= 0".
        with pytest.raises(ConfigurationError):
            skewed_probabilities(0, np.array([0.0, 2.0, 3.0]), alpha=math.nan)


class TestDistanceSkewedSelector:
    def test_requires_placement(self):
        with pytest.raises(ConfigurationError):
            DistanceSkewedSelector().make(0, 16, None)

    def test_placement_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            DistanceSkewedSelector().make(0, 32, PLACEMENT_16)

    def test_empirical_matches_distribution(self):
        factory = DistanceSkewedSelector()
        probs = factory.probabilities(0, PLACEMENT_64)
        sel = factory.make(0, 64, PLACEMENT_64, seed=4)
        counts = np.zeros(64)
        n = 60000
        for _ in range(n):
            counts[sel.next_victim()] += 1
        emp = counts / n
        assert np.abs(emp - probs).max() < 0.01

    def test_prefers_co_located(self):
        """Under 8G the 7 co-located ranks should absorb a large share."""
        factory = DistanceSkewedSelector()
        probs = factory.probabilities(0, PLACEMENT_64)
        same_node = PLACEMENT_64.rank_nodes == PLACEMENT_64.rank_nodes[0]
        same_node[0] = False
        assert probs[same_node].sum() > 7 / 63  # more than uniform share

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerSkewedSelector(-1.0)


@pytest.mark.parametrize("prefix", ["skew", "latskew"])
class TestNonFiniteAlpha:
    """A NaN alpha used to draw victim 0 forever (rank 0 stealing from
    itself until the event budget ran out)."""

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_constructor_rejects(self, prefix, alpha):
        cls = {"skew": PowerSkewedSelector, "latskew": LatencySkewedSelector}
        with pytest.raises(ConfigurationError, match="finite"):
            cls[prefix](alpha)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_run_uts_rejects(self, prefix, alpha):
        with pytest.raises(ConfigurationError):
            run_uts(tree=T3XS, nranks=16, selector=f"{prefix}[{alpha}]")

    def test_run_uts_rejects_nan_set_after_construction(self, prefix):
        selector = registry.resolve("selector", f"{prefix}[1]")
        selector.alpha = math.nan
        with pytest.raises(ConfigurationError, match="degenerate"):
            run_uts(tree=T3XS, nranks=16, selector=selector)


class TestHierarchical:
    def test_bad_p_near(self):
        with pytest.raises(ConfigurationError):
            HierarchicalSelector(1.5)

    def test_near_bias(self):
        factory = HierarchicalSelector(p_near=0.9)
        sel = factory.make(0, 64, PLACEMENT_64, seed=5)
        lat = PLACEMENT_64.latency.row(0)
        others = np.arange(1, 64)
        cut = np.median(lat[others])
        near_hits = sum(
            1 for _ in range(5000) if lat[sel.next_victim()] <= cut
        )
        assert near_hits / 5000 > 0.8


class TestLastVictim:
    def test_sticks_after_success(self):
        sel = LastVictimSelector().make(0, 16, seed=6)
        v = sel.next_victim()
        sel.notify(v, success=True)
        assert sel.next_victim() == v

    def test_unsticks_after_failure(self):
        sel = LastVictimSelector().make(0, 16, seed=7)
        v = sel.next_victim()
        sel.notify(v, success=True)
        v2 = sel.next_victim()  # sticky repeat
        sel.notify(v2, success=False)
        # Over many draws we should not be glued to v2.
        draws = {sel.next_victim() for _ in range(100)}
        assert len(draws) > 1


class TestRegistry:
    @pytest.mark.parametrize(
        "name,cls_name",
        [
            ("reference", "RoundRobinSelector"),
            ("rand", "UniformRandomSelector"),
            ("tofu", "DistanceSkewedSelector"),
            ("hierarchical", "HierarchicalSelector"),
            ("lastvictim", "LastVictimSelector"),
        ],
    )
    def test_aliases(self, name, cls_name):
        assert type(registry.resolve("selector", name)).__name__ == cls_name

    def test_parametric_skew(self):
        f = registry.resolve("selector", "skew[2.5]")
        assert isinstance(f, PowerSkewedSelector)
        assert f.alpha == 2.5

    def test_parametric_hier(self):
        f = registry.resolve("selector", "hier[0.7]")
        assert isinstance(f, HierarchicalSelector)
        assert f.p_near == 0.7

    def test_bad_parametric(self):
        with pytest.raises(ConfigurationError):
            registry.resolve("selector", "skew[abc]")

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            registry.resolve("selector", "oracle")


@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=0, max_value=39),
    st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=100, deadline=None)
def test_uniform_never_self_property(nranks, rank, seed):
    rank = rank % nranks
    sel = UniformRandomSelector().make(rank, nranks, seed=seed)
    for _ in range(30):
        v = sel.next_victim()
        assert v != rank
        assert 0 <= v < nranks
