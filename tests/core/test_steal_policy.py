"""Tests for steal-amount policies."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import registry
from repro.core.steal_policy import (
    StealFraction,
    StealHalf,
    StealOne,
)
from repro.errors import ConfigurationError

ALL_POLICIES = [StealOne(), StealHalf(), StealFraction(0.5), StealFraction(0.1)]


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
class TestPolicyContract:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_bounds(self, policy, stealable):
        k = policy.chunks_to_steal(stealable)
        assert 0 <= k <= stealable
        if stealable > 0:
            assert k >= 1  # something stealable -> steal something

    def test_zero_means_zero(self, policy):
        assert policy.chunks_to_steal(0) == 0

    def test_negative_rejected(self, policy):
        with pytest.raises(ConfigurationError):
            policy.chunks_to_steal(-1)


class TestStealOne:
    @pytest.mark.parametrize("stealable,expected", [(0, 0), (1, 1), (2, 1), (99, 1)])
    def test_values(self, stealable, expected):
        assert StealOne().chunks_to_steal(stealable) == expected


class TestStealHalf:
    @pytest.mark.parametrize(
        "stealable,expected",
        [(0, 0), (1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (100, 50)],
    )
    def test_values(self, stealable, expected):
        assert StealHalf().chunks_to_steal(stealable) == expected

    @given(st.integers(min_value=2, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_leaves_victim_work(self, stealable):
        """Half-stealing never empties the stealable region entirely
        when there are at least 2 chunks."""
        k = StealHalf().chunks_to_steal(stealable)
        assert stealable - k >= stealable // 2 - 1
        assert k < stealable or stealable == 1


class TestStealFraction:
    def test_values(self):
        p = StealFraction(0.25)
        assert p.chunks_to_steal(0) == 0
        assert p.chunks_to_steal(1) == 1  # at least one
        assert p.chunks_to_steal(8) == 2
        assert p.chunks_to_steal(100) == 25

    def test_full_fraction(self):
        assert StealFraction(1.0).chunks_to_steal(7) == 7

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_bad_fraction(self, bad):
        with pytest.raises(ConfigurationError):
            StealFraction(bad)


class TestRegistry:
    def test_one(self):
        assert isinstance(registry.resolve("steal_policy", "one"), StealOne)

    def test_half(self):
        assert isinstance(registry.resolve("steal_policy", "half"), StealHalf)

    def test_fraction(self):
        p = registry.resolve("steal_policy", "frac[0.3]")
        assert isinstance(p, StealFraction)
        assert p.fraction == 0.3

    def test_bad_fraction_string(self):
        with pytest.raises(ConfigurationError):
            registry.resolve("steal_policy", "frac[x]")

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            registry.resolve("steal_policy", "all")
