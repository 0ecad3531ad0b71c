"""Tests for the mixed-radix coordinate space."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.net.coords import CoordSpace

DIMS = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5)


class TestConstruction:
    def test_size(self):
        s = CoordSpace((2, 3, 4))
        assert s.size == 24
        assert s.ndim == 3

    def test_empty_dims(self):
        with pytest.raises(TopologyError):
            CoordSpace(())

    def test_zero_dim(self):
        with pytest.raises(TopologyError):
            CoordSpace((2, 0, 3))

    def test_wraps_length_mismatch(self):
        with pytest.raises(TopologyError):
            CoordSpace((2, 3), wraps=(True,))

    def test_default_no_wrap(self):
        s = CoordSpace((4, 4))
        assert s.wraps == (False, False)


def separations(s: CoordSpace, a, b) -> list[int]:
    """The min-image rule written out one coordinate at a time."""
    return [
        min(abs(x - y), n - abs(x - y)) if w else abs(x - y)
        for x, y, n, w in zip(a, b, s.dims, s.wraps)
    ]


def _pair(s: CoordSpace, a, b) -> np.ndarray:
    """Per-dimension separations of two coordinate vectors, dense reference."""
    return s.delta_matrix(np.array([a, b]))[0, 1]


class TestIdCoordsRoundtrip:
    @given(DIMS, st.data())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, dims, data):
        s = CoordSpace(tuple(dims))
        nodes = np.array(
            data.draw(st.lists(st.integers(0, s.size - 1), min_size=1, max_size=20))
        )
        coords = s.coords_of_many(nodes)
        assert coords.shape == (len(nodes), s.ndim)
        assert np.array_equal(np.ravel_multi_index(coords.T, s.dims), nodes)

    def test_row_major_order(self):
        s = CoordSpace((2, 3))
        coords = s.coords_of_many(np.array([0, 1, 3]))
        assert coords.tolist() == [[0, 0], [0, 1], [1, 0]]

    def test_coords_of_many(self):
        s = CoordSpace((2, 3))
        all_coords = s.coords_of_many(np.arange(6))
        assert all_coords.tolist() == [[a, b] for a in range(2) for b in range(3)]

    def test_out_of_range(self):
        s = CoordSpace((2, 2))
        for nodes in ([4], [-1], [0, 5]):
            with pytest.raises(TopologyError):
                s.coords_of_many(np.array(nodes))


class TestDistances:
    def test_no_wrap_manhattan(self):
        s = CoordSpace((10,))
        assert _pair(s, [0], [9]).sum() == 9

    def test_wrap_manhattan(self):
        s = CoordSpace((10,), wraps=(True,))
        assert _pair(s, [0], [9]).sum() == 1
        assert _pair(s, [0], [5]).sum() == 5

    def test_mixed_wrap(self):
        s = CoordSpace((10, 10), wraps=(True, False))
        assert _pair(s, [0, 0], [9, 9]).tolist() == [1, 9]

    def test_euclidean(self):
        s = CoordSpace((10, 10))
        assert np.hypot(*_pair(s, [0, 0], [3, 4])) == pytest.approx(5.0)

    def test_euclidean_wrapped(self):
        s = CoordSpace((10, 10), wraps=(True, True))
        assert np.hypot(*_pair(s, [0, 0], [9, 0])) == pytest.approx(1.0)

    @given(DIMS, st.data())
    @settings(max_examples=100, deadline=None)
    def test_metric_properties(self, dims, data):
        wraps = tuple(
            data.draw(st.booleans(), label=f"wrap{k}") for k in range(len(dims))
        )
        s = CoordSpace(tuple(dims), wraps=wraps)
        ids = st.integers(min_value=0, max_value=s.size - 1)
        d = s.delta_matrix(s.coords_of_many([data.draw(ids) for _ in range(3)]))
        hops = d.sum(axis=2)
        eucl = np.sqrt((d * d).sum(axis=2))
        a, b, c = range(3)
        # Identity, symmetry, triangle inequality for manhattan.
        assert hops[a, a] == 0
        assert hops[a, b] == hops[b, a]
        assert hops[a, c] <= hops[a, b] + hops[b, c]
        # Euclidean <= Manhattan always.
        assert eucl[a, b] <= hops[a, b] + 1e-12

    def test_delta_matrix_consistent(self):
        s = CoordSpace((4, 3, 2), wraps=(True, False, True))
        nodes = np.array([0, 5, 11, 17, 23])
        coords = s.coords_of_many(nodes).tolist()
        dm = s.delta_matrix(coords)
        for i, a in enumerate(coords):
            for j, b in enumerate(coords):
                assert dm[i, j].tolist() == separations(s, a, b)
