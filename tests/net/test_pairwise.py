"""Tests for the pairwise-metric row functions (``repro.net.pairwise``)."""

import tracemalloc

import numpy as np
import pytest

from repro.core import registry
from repro.errors import ConfigurationError
from repro.net.allocation import build_placement
from repro.net.pairwise import PairwiseMetric


def _counting_metric(n: int):
    """A metric whose rows are ``i + j`` with a call counter on row_fn."""
    calls = []

    def row_fn(i):
        calls.append(i)
        return np.arange(n, dtype=np.float64) + i

    return PairwiseMetric(n, row_fn, name="test"), calls


class TestRowAccess:
    def test_row_values(self):
        m, _ = _counting_metric(5)
        assert np.array_equal(m.row(2), np.arange(5) + 2)

    def test_value_scalar(self):
        m, _ = _counting_metric(5)
        assert m.value(1, 3) == 4.0
        assert isinstance(m.value(1, 3), float)

    def test_every_read_computes_a_fresh_row(self):
        m, calls = _counting_metric(5)
        first = m.row(2)
        first[0] = 99.0
        assert m.row(2)[0] == 2.0
        m.value(2, 1)
        assert calls == [2, 2, 2]

    def test_row_out_of_range(self):
        m, _ = _counting_metric(4)
        with pytest.raises(ConfigurationError):
            m.row(4)
        with pytest.raises(ConfigurationError):
            m.row(-1)

    def test_bad_row_shape_rejected(self):
        m = PairwiseMetric(4, lambda i: np.zeros(3), name="bad")
        with pytest.raises(ConfigurationError):
            m.row(0)


class TestConstruction:
    def test_rejects_zero_ranks(self):
        with pytest.raises(ConfigurationError):
            PairwiseMetric(0, lambda i: np.zeros(0))

    def test_four_slots_and_no_array_sugar(self):
        assert PairwiseMetric.__slots__ == ("n", "name", "_row_fn", "codes")
        m, _ = _counting_metric(3)
        with pytest.raises(TypeError):
            m[0]  # noqa: B018


class TestPlacementScale:
    """The PR's memory target: 8192 ranks with no dense N x N."""

    def test_8192_rank_placement_stays_lazy(self):
        tracemalloc.start()
        try:
            placement = build_placement(8192, registry.resolve("allocation", "1/N"))
            # Touch the access patterns the simulator actually uses:
            # selector rows, transport point values, finish-broadcast row.
            for i in range(0, 8192, 512):
                placement.latency.row(i)
                placement.euclidean.row(i)
                placement.latency.value(i, (i + 1) % 8192)
            placement.latency.row(0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        # One dense float64 matrix alone would be 512 MiB; the rows
        # plus coordinates should stay far under that.
        assert peak < 150 * 1024 * 1024, f"peak RSS-ish {peak / 2**20:.0f} MiB"
