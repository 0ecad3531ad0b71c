"""Tests for topologies (Tofu model in particular)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, TopologyError
from repro.net.allocation import OnePerNode, build_placement
from repro.net.topology import FlatTopology, TofuTopology
from tests.net.test_coords import separations

ALL_TOPOLOGIES = [
    TofuTopology((3, 2, 2)),
    FlatTopology(20),
]


def _node(topo: TofuTopology, coords) -> int:
    """Row-major node id of a Tofu coordinate vector."""
    return int(np.ravel_multi_index(coords, topo.space.dims))


def _nodes(topo) -> np.ndarray:
    """Node ids spanning every cube of the Tofu contract grid, across
    its wrapping x link too; repeats are co-located ranks."""
    return np.array([0, 1, 5, 13, 30, 47, 50, 77, 95, 100, 143, 0, 30]) % topo.num_nodes


@pytest.mark.parametrize("topo", ALL_TOPOLOGIES, ids=lambda t: t.name)
class TestTopologyContract:
    # The dense matrices are the reference the row builders are tested
    # against (tests/net/test_row_builders.py), so the metric laws are
    # checked on them.

    def test_hops_identity(self, topo):
        hm = topo.hops_matrix(np.arange(0, topo.num_nodes, 3))
        assert np.all(np.diag(hm) == 0)

    def test_hops_symmetry(self, topo):
        hm = topo.hops_matrix(_nodes(topo))
        assert np.array_equal(hm, hm.T)

    def test_hops_positive_off_diagonal(self, topo):
        nodes = _nodes(topo)
        hm = topo.hops_matrix(nodes)
        distinct = nodes[:, None] != nodes[None, :]
        assert np.all(hm[distinct] > 0)
        assert np.all(hm[~distinct] == 0)

    def test_euclidean_symmetry(self, topo):
        em = topo.euclidean_matrix(_nodes(topo))
        assert np.array_equal(em, em.T)

    def test_matrix_matches_scalar(self, topo):
        # Each entry against its pair's separations written out by hand:
        # one 0/1 step on the flat topology, min-image per Tofu dimension.
        nodes = _nodes(topo)
        hm, em = topo.hops_matrix(nodes), topo.euclidean_matrix(nodes)
        for i, a in enumerate(nodes):
            for j, b in enumerate(nodes):
                if isinstance(topo, FlatTopology):
                    d = [int(a != b)]
                else:
                    d = separations(topo.space, *topo.space.coords_of_many([a, b]))
                assert hm[i, j] == sum(d)
                assert em[i, j] == pytest.approx(math.hypot(*d))

    def test_out_of_range(self, topo):
        # Only a placement hands a topology node ids, and it refuses one
        # the topology does not have.
        class Outside(OnePerNode):
            def rank_nodes(self, nranks):
                return super().rank_nodes(nranks) + 1

        with pytest.raises(AllocationError):
            build_placement(topo.num_nodes, Outside(), topology_factory=lambda n: topo)


class TestTofu:
    def test_node_count(self):
        t = TofuTopology((2, 3, 4))
        assert t.num_nodes == 2 * 3 * 4 * 12

    def test_bad_grid(self):
        with pytest.raises(TopologyError):
            TofuTopology((2, 3))  # type: ignore[arg-type]

    def test_blade_structure(self):
        # The integer blade key HierarchicalLatency.code_rows compares:
        # 4 nodes per blade, 3 blades per cube.
        t = TofuTopology((2, 2, 2))
        nodes = np.arange(t.num_nodes)
        coords = t.space.coords_of_many(nodes)
        blade = nodes // t.NODES_PER_CUBE * t.CUBE_DIMS[1] + coords[:, 4]
        _, sizes = np.unique(blade, return_counts=True)
        assert sizes.tolist() == [4] * (t.num_nodes // 4)
        # One key per (x, y, z, b): a blade never spans two cubes.
        for b in np.unique(blade):
            members = coords[blade == b][:, [0, 1, 2, 4]]
            assert len({tuple(c) for c in members}) == 1

    def test_cube_structure(self):
        # The integer cube key: nodes are numbered with the in-cube
        # dimensions fastest, so node // 12 is the cube's (x, y, z).
        t = TofuTopology((2, 2, 2))
        nodes = np.arange(t.num_nodes)
        cube = nodes // t.NODES_PER_CUBE
        xyz = t.space.coords_of_many(nodes)[:, :3]
        _, sizes = np.unique(cube, return_counts=True)
        assert sizes.tolist() == [t.NODES_PER_CUBE] * 8
        for c in range(8):
            assert len({tuple(x) for x in xyz[cube == c]}) == 1

    def test_torus_wraps_cube_grid(self):
        t = TofuTopology((4, 4, 4))
        # Node 0 is in cube (0,0,0); find a node in cube (3,0,0): wrap
        # distance along x should be 1 cube, not 3.
        n_far = _node(t, [3, 0, 0, 0, 0, 0])
        assert t.hops_matrix([0, n_far])[0, 1] == 1

    def test_in_cube_no_wrap(self):
        t = TofuTopology((2, 2, 2))
        a = _node(t, [0, 0, 0, 0, 0, 0])
        b = _node(t, [0, 0, 0, 1, 2, 1])
        assert t.hops_matrix([a, b])[0, 1] == 4  # 1 + 2 + 1, no wrap on b

    def test_for_nodes_capacity(self):
        for n in (1, 8, 12, 13, 100, 1024):
            t = TofuTopology.for_nodes(n)
            assert t.num_nodes >= n

    def test_for_nodes_compact(self):
        t = TofuTopology.for_nodes(96)  # 8 cubes
        assert t.cube_grid == (2, 2, 2)

    def test_for_nodes_no_overallocation(self):
        # 86 cubes needed for 1024 nodes: a (4,5,5)=100 box beats (5,5,5).
        t = TofuTopology.for_nodes(1024)
        x, y, z = t.cube_grid
        assert x * y * z < 125

    def test_for_nodes_bad(self):
        with pytest.raises(TopologyError):
            TofuTopology.for_nodes(0)

    @pytest.mark.xfail(
        strict=True,
        reason="for_nodes keys on (volume, spread), so a prime cube count "
        "books a ring; fixing it re-pins every digest (EXPERIMENTS.md, "
        "Validity boundary)",
    )
    @pytest.mark.parametrize("n_nodes", [128, 512, 4096, 8192])
    def test_for_nodes_is_near_cubic(self, n_nodes):
        # The docstring's claim: no box within 10% more volume than
        # needed is more compact than the one chosen.
        cubes = -(-n_nodes // TofuTopology.NODES_PER_CUBE)
        side = range(1, cubes + 1)
        best = min(
            z - x
            for x in side
            for y in range(x, cubes // x + 2)
            for z in range(y, cubes // (x * y) + 2)
            if cubes <= x * y * z <= 1.1 * cubes
        )
        x, _, z = sorted(TofuTopology.for_nodes(n_nodes).cube_grid)
        assert z - x <= best


class TestFlat:
    def test_all_pairs_equidistant(self):
        t = FlatTopology(10)
        d = t.euclidean_matrix(np.arange(10))
        off = d[~np.eye(10, dtype=bool)]
        assert np.all(off == 1.0)

    def test_bad_size(self):
        with pytest.raises(TopologyError):
            FlatTopology(0)


@given(
    st.tuples(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
    ),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_tofu_triangle_inequality(grid, data):
    t = TofuTopology(grid)
    ids = st.integers(min_value=0, max_value=t.num_nodes - 1)
    nodes = [data.draw(ids) for _ in range(3)]
    hm, em = t.hops_matrix(nodes), t.euclidean_matrix(nodes)
    assert hm[0, 2] <= hm[0, 1] + hm[1, 2]
    assert em[0, 2] <= em[0, 1] + em[1, 2] + 1e-9
