"""Tests for dilated allocations (paper-scale distances, fewer ranks)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import registry
from repro.errors import AllocationError, ConfigurationError
from repro.net.allocation import (
    DilatedAllocation,
    GroupedPacked,
    OnePerNode,
    build_placement,
)


class TestDilatedAllocation:
    def test_books_dilation_times_nodes(self):
        d = DilatedAllocation(OnePerNode(), 16)
        assert d.nodes_needed(32) == 512

    def test_rank_nodes_strided(self):
        d = DilatedAllocation(OnePerNode(), 4)
        assert d.rank_nodes(5).tolist() == [0, 4, 8, 12, 16]

    def test_grouping_preserved(self):
        d = DilatedAllocation(GroupedPacked(8), 4)
        nodes = d.rank_nodes(16)
        assert set(nodes[:8]) == {0}
        assert set(nodes[8:]) == {4}

    def test_name(self):
        assert DilatedAllocation(OnePerNode(), 16).name == "1/N@x16"

    def test_identity_dilation(self):
        d = DilatedAllocation(OnePerNode(), 1)
        assert d.rank_nodes(8).tolist() == list(range(8))

    def test_bad_dilation(self):
        with pytest.raises(AllocationError):
            DilatedAllocation(OnePerNode(), 0)


class TestNameParsing:
    def test_parse(self):
        a = registry.resolve("allocation", "8G@x16")
        assert isinstance(a, DilatedAllocation)
        assert a.dilation == 16
        assert a.base.name == "8G"

    def test_bad_dilation_string(self):
        with pytest.raises(ConfigurationError):
            registry.resolve("allocation", "1/N@xfoo")

    def test_unknown_base(self):
        with pytest.raises(ConfigurationError):
            registry.resolve("allocation", "zzz@x4")


class TestDilatedPlacement:
    def test_increases_distances(self):
        compact = build_placement(32, "1/N")
        dilated = build_placement(32, "1/N@x8")

        def mean_off_diagonal(metric):
            return np.mean([np.delete(metric.row(i), i) for i in range(32)])

        assert mean_off_diagonal(dilated.euclidean) > mean_off_diagonal(
            compact.euclidean
        )
        assert mean_off_diagonal(dilated.latency) > mean_off_diagonal(
            compact.latency
        )

    def test_colocation_survives_dilation(self):
        p = build_placement(16, "8G@x8")
        assert p.num_nodes_used == 2
        # Ranks 0-7 share one physical node: zero distance.
        assert all(np.all(p.euclidean.row(i)[:8] == 0.0) for i in range(8))
