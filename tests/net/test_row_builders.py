"""Bit-parity of the separable row builders with the matrix path.

``hops_rows``/``euclidean_rows`` compute row ``i`` as a sum of
per-dimension table lookups and ``code_rows`` as small-integer codes
into one value table per job (``float_rows`` decodes them);
``hops_matrix``/``euclidean_matrix``/``matrix`` keep the direct
broadcast formulas and are the reference here.  Equality is exact —
same dtype, same bytes — because simulated times and victim tables are
pinned by digest.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import registry
from repro.core.victim import skewed_probabilities
from repro.errors import ConfigurationError
from repro.net.allocation import build_placement
from repro.net.coords import CoordSpace
from repro.net.latency import (
    HierarchicalLatency,
    KComputerLatency,
    UniformLatency,
)
from repro.net.topology import TofuTopology

ALLOCATIONS = ["1/N", "8RR", "8G", "4RR", "4G"]
#: ``(topology_factory, latency_model)``: every model on the default Tofu
#: topology, then the flat-topology ablation's pair.
TOPOLOGY_MODELS = [
    (None, KComputerLatency()),
    (None, HierarchicalLatency(3e-7, 5e-7, 9e-7, 1.3e-6, 1.7e-7)),
    (None, UniformLatency()),
    ("flat", UniformLatency()),
]


def _same(row: np.ndarray, ref: np.ndarray) -> bool:
    return row.dtype == ref.dtype and row.tobytes() == ref.tobytes()


@st.composite
def _space_and_nodes(draw):
    ndim = draw(st.integers(1, 6))
    dims = tuple(
        draw(st.lists(st.sampled_from([1, 2, 3, 4, 5, 7]), min_size=ndim, max_size=ndim))
    )
    wraps = tuple(draw(st.lists(st.booleans(), min_size=ndim, max_size=ndim)))
    space = CoordSpace(dims, wraps)
    # Any node multiset: repeats are co-located ranks.
    nodes = draw(
        st.lists(st.integers(0, space.size - 1), min_size=1, max_size=40)
    )
    return space, np.array(nodes, dtype=np.int64)


@st.composite
def _tofu_and_nodes(draw):
    grid = draw(st.lists(st.integers(1, 4), min_size=3, max_size=3))
    topo = TofuTopology(tuple(grid))
    # Any node multiset: repeats are co-located ranks.
    nodes = draw(
        st.lists(st.integers(0, topo.num_nodes - 1), min_size=1, max_size=40)
    )
    return topo, np.array(nodes, dtype=np.int64)


class TestGridRows:
    @settings(max_examples=150, deadline=None)
    @given(case=_tofu_and_nodes())
    def test_rows_equal_matrix_rows(self, case):
        topo, nodes = case
        hops, eucl = topo.hops_matrix(nodes), topo.euclidean_matrix(nodes)
        hops_row, eucl_row = topo.hops_rows(nodes), topo.euclidean_rows(nodes)
        for i in range(len(nodes)):
            h = hops_row(i)
            assert h.dtype == hops.dtype and np.array_equal(h, hops[i])
            assert _same(eucl_row(i), eucl[i])

    @settings(max_examples=60, deadline=None)
    @given(case=_space_and_nodes(), data=st.data())
    def test_partial_sums_and_squares(self, case, data):
        space, nodes = case
        ndims = data.draw(st.integers(1, space.ndim))
        coords = space.coords_of_many(nodes)
        delta = space.delta_matrix(coords)[:, :, :ndims]
        plain = space.delta_sum_rows(coords, ndims=ndims)
        squared = space.delta_sum_rows(coords, ndims=ndims, squared=True)
        for i in range(len(nodes)):
            assert np.array_equal(plain(i), delta[i].sum(axis=1))
            assert np.array_equal(squared(i), (delta[i] * delta[i]).sum(axis=1))
        # A slice is those rows as one block, in an unsigned dtype.
        lo = data.draw(st.integers(0, len(nodes) - 1))
        hi = data.draw(st.integers(lo, len(nodes)))
        for rows in (plain, squared):
            block = rows(slice(lo, hi))
            assert block.shape == (hi - lo, len(nodes))
            assert block.dtype.kind == "u"
            assert all(np.array_equal(block[i - lo], rows(i)) for i in range(lo, hi))

    def test_rows_are_fresh_arrays(self):
        # A caller owns the row ``PairwiseMetric.row`` hands it and may
        # write into it; the builder's tables must not be what it gets.
        # Cube corners 0, 12, 24, 36 sit on one wrapping ring of four.
        row = TofuTopology((4, 1, 1)).hops_rows(np.arange(0, 48, 12))
        first = row(1)
        first[:] = -1
        assert row(1).tolist() == [1, 0, 1, 2]


class TestPlacementRows:
    @pytest.mark.parametrize("alloc", ALLOCATIONS)
    @pytest.mark.parametrize("nranks", [2, 24, 33, 100])
    def test_every_metric_equals_its_matrix(self, alloc, nranks):
        allocation = registry.resolve("allocation", alloc)
        for topology, model in TOPOLOGY_MODELS:
            p = build_placement(
                nranks, allocation, latency_model=model, topology_factory=topology
            )
            hops = p.topology.hops_matrix(p.rank_nodes)
            eucl = p.topology.euclidean_matrix(p.rank_nodes)
            lat = model.matrix(p.topology, p.rank_nodes)
            code_row, values = model.code_rows(p.topology, p.rank_nodes)
            lat_row = model.float_rows(code_row, values)
            hops_row = p.topology.hops_rows(p.rank_nodes)
            assert all(type(v) is float for v in values)
            table = np.array(values)
            for i in range(nranks):
                assert _same(hops_row(i), hops[i])
                assert _same(p.euclidean.row(i), eucl[i])
                assert _same(p.latency.row(i), lat[i])
                assert _same(lat_row(i), lat[i])
                codes = code_row(i)
                assert codes.dtype == np.uint8
                assert _same(table[codes], lat[i])
            # What the engine keeps is what the placement decodes.
            assert p.latency.codes[1] == values
            # Euclidean codes are squared distances: each decodes to its
            # row, and a slice of them is the stacked rows.
            squares, roots = p.euclidean.codes
            block = squares(slice(0, nranks))
            for i in range(nranks):
                assert _same(roots[squares(i)], eucl[i])
                assert np.array_equal(block[i], squares(i))

    @settings(max_examples=40, deadline=None)
    @given(
        grid=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5)),
        data=st.data(),
    )
    def test_hierarchical_levels_on_any_cube_grid(self, grid, data):
        topo = TofuTopology(grid)
        nodes = np.array(
            data.draw(
                st.lists(
                    st.integers(0, topo.num_nodes - 1), min_size=1, max_size=30
                )
            ),
            dtype=np.int64,
        )
        model = KComputerLatency()
        lat = model.matrix(topo, nodes)
        row = model.float_rows(*model.code_rows(topo, nodes))
        for i in range(len(nodes)):
            assert _same(row(i), lat[i])


class TestCodeRows:
    def test_wide_codes_past_256_values(self):
        # The 8192-node machine ``for_nodes`` books is a ring of 683
        # cubes: 342 hop classes and 4 constants do not fit a byte.
        topo = TofuTopology.for_nodes(8192)
        assert topo.cube_grid == (1, 1, 683)
        nodes = np.arange(0, 8192, 16, dtype=np.int64)
        model = KComputerLatency()
        code_row, values = model.code_rows(topo, nodes)
        assert len(values) > 256
        lat = model.matrix(topo, nodes)
        table = np.array(values)
        for i in range(len(nodes)):
            codes = code_row(i)
            assert codes.dtype == np.uint16
            assert _same(table[codes], lat[i])
        # ... and the engine's view of a row indexes to the same floats.
        view = memoryview(code_row(3))
        assert [values[view[j]] for j in range(len(nodes))] == lat[3].tolist()

    @pytest.mark.parametrize(
        "model, field",
        [
            (KComputerLatency(), "per_hop"),
            (KComputerLatency(), "blade"),
            (HierarchicalLatency(), "intra_node"),
            (UniformLatency(), "latency"),
        ],
    )
    def test_negative_component_rejected_on_the_table(self, model, field):
        # Constructors refuse negative components; one that appears
        # later must still never reach a simulated time.
        setattr(model, field, -1.0)
        p = build_placement(24, "1/N")
        with pytest.raises(ConfigurationError, match="negative latency"):
            model.code_rows(p.topology, p.rank_nodes)


class TestTofuTables:
    @pytest.mark.parametrize("nranks", [33, 256, 1000])
    def test_cumulative_tables_byte_equal(self, nranks):
        placement = build_placement(nranks, "1/N")
        reference = placement.topology.euclidean_matrix(placement.rank_nodes)
        tofu = registry.resolve("selector", "tofu")
        step = max(1, nranks // 40)
        for rank in list(range(0, nranks, step)) + [nranks - 1]:
            state = tofu.make(rank, nranks, placement, seed=0)
            cum = np.cumsum(skewed_probabilities(rank, reference[rank]))
            # Every edge equal to the final sum is pinned: the last
            # rank's own zero-weight edge as well as the one before it.
            cum[cum == cum[-1]] = 1.0
            assert _same(state.cumulative(), cum)
