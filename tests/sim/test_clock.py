"""Tests for the clock-skew model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.clock import ClockSkewModel


class TestDisabled:
    def test_zero_std_zero_offsets(self):
        clock = ClockSkewModel(8, std=0.0)
        assert np.all(clock.offsets == 0.0)


class TestEnabled:
    def test_offsets_deterministic(self):
        a = ClockSkewModel(8, std=1e-3, seed=5)
        b = ClockSkewModel(8, std=1e-3, seed=5)
        assert np.array_equal(a.offsets, b.offsets)

    def test_different_seeds_differ(self):
        a = ClockSkewModel(8, std=1e-3, seed=5)
        b = ClockSkewModel(8, std=1e-3, seed=6)
        assert not np.array_equal(a.offsets, b.offsets)

    def test_offsets_scale_with_std(self):
        small = ClockSkewModel(100, std=1e-6, seed=1)
        large = ClockSkewModel(100, std=1e-3, seed=1)
        assert np.abs(large.offsets).mean() > np.abs(small.offsets).mean()


class TestValidation:
    def test_bad_nranks(self):
        with pytest.raises(ConfigurationError):
            ClockSkewModel(0)

    def test_bad_std(self):
        with pytest.raises(ConfigurationError):
            ClockSkewModel(4, std=-1.0)
