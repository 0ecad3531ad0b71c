"""Tests for process allocations and placement building."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, ConfigurationError
from repro.net.allocation import (
    GroupedPacked,
    OnePerNode,
    Placement,
    RandomAllocation,
    RoundRobinPacked,
    aligned_block_bounds,
    allocation_by_name,
    build_placement,
)
from repro.net.latency import UniformLatency
from repro.net.pairwise import PairwiseMetric
from repro.net.topology import FlatTopology, TofuTopology


class TestOnePerNode:
    def test_identity_mapping(self):
        a = OnePerNode()
        assert a.rank_nodes(5).tolist() == [0, 1, 2, 3, 4]
        assert a.nodes_needed(5) == 5

    def test_bad_nranks(self):
        with pytest.raises(AllocationError):
            OnePerNode().rank_nodes(0)


class TestRoundRobinPacked:
    def test_paper_description(self):
        """Processes i, i+M, i+2M, ... are on the same node."""
        a = RoundRobinPacked(8)
        nodes = a.rank_nodes(64)  # 8 nodes
        assert a.nodes_needed(64) == 8
        for i in range(8):
            assert len(set(nodes[i::8])) == 1

    def test_consecutive_ranks_different_nodes(self):
        nodes = RoundRobinPacked(8).rank_nodes(64)
        assert all(nodes[i] != nodes[i + 1] for i in range(63))

    def test_balanced(self):
        nodes = RoundRobinPacked(4).rank_nodes(32)
        _, counts = np.unique(nodes, return_counts=True)
        assert np.all(counts == 4)

    def test_non_divisible(self):
        a = RoundRobinPacked(8)
        assert a.nodes_needed(10) == 2
        assert a.rank_nodes(10).max() == 1

    def test_bad_per_node(self):
        with pytest.raises(AllocationError):
            RoundRobinPacked(0)


class TestGroupedPacked:
    def test_paper_description(self):
        """First 8 ranks on node 0, next 8 on node 1, ..."""
        nodes = GroupedPacked(8).rank_nodes(64)
        for j in range(8):
            assert set(nodes[8 * j : 8 * j + 8]) == {j}

    def test_consecutive_ranks_mostly_same_node(self):
        nodes = GroupedPacked(8).rank_nodes(64)
        same = sum(nodes[i] == nodes[i + 1] for i in range(63))
        assert same == 63 - 7  # one switch per node boundary

    def test_bad_per_node(self):
        with pytest.raises(AllocationError):
            GroupedPacked(-1)


class TestRandomAllocation:
    def test_deterministic_per_seed(self):
        a = RandomAllocation(per_node=2, seed=7)
        b = RandomAllocation(per_node=2, seed=7)
        assert a.rank_nodes(20).tolist() == b.rank_nodes(20).tolist()

    def test_different_seeds_differ(self):
        a = RandomAllocation(per_node=2, seed=7).rank_nodes(40)
        b = RandomAllocation(per_node=2, seed=8).rank_nodes(40)
        assert a.tolist() != b.tolist()

    def test_balanced(self):
        nodes = RandomAllocation(per_node=4, seed=0).rank_nodes(40)
        _, counts = np.unique(nodes, return_counts=True)
        assert np.all(counts == 4)


class TestRegistry:
    @pytest.mark.parametrize("name", ["1/N", "8RR", "8G", "4RR", "4G"])
    def test_known(self, name):
        assert allocation_by_name(name).name == name

    def test_unknown(self):
        with pytest.raises(ConfigurationError):
            allocation_by_name("16G")


@st.composite
def alloc_and_nranks(draw):
    kind = draw(st.sampled_from(["1/N", "RR", "G", "RAND"]))
    per_node = draw(st.integers(min_value=1, max_value=8))
    nranks = draw(st.integers(min_value=1, max_value=128))
    if kind == "1/N":
        return OnePerNode(), nranks
    if kind == "RR":
        return RoundRobinPacked(per_node), nranks
    if kind == "G":
        return GroupedPacked(per_node), nranks
    return RandomAllocation(per_node, seed=draw(st.integers(0, 100))), nranks


class TestAllocationProperties:
    @given(alloc_and_nranks())
    @settings(max_examples=100, deadline=None)
    def test_every_rank_placed_in_range(self, case):
        alloc, nranks = case
        nodes = alloc.rank_nodes(nranks)
        assert len(nodes) == nranks
        assert nodes.min() >= 0
        assert nodes.max() < alloc.nodes_needed(nranks)

    @given(alloc_and_nranks())
    @settings(max_examples=100, deadline=None)
    def test_load_never_exceeds_per_node(self, case):
        alloc, nranks = case
        per_node = getattr(alloc, "per_node", 1)
        _, counts = np.unique(alloc.rank_nodes(nranks), return_counts=True)
        assert counts.max() <= per_node


class TestBuildPlacement:
    def test_defaults(self):
        p = build_placement(16)
        assert p.nranks == 16
        assert p.allocation_name == "1/N"
        assert p.latency_name == "kcomputer"
        assert p.num_nodes_used == 16

    def test_by_name(self):
        p = build_placement(32, "8G")
        assert p.num_nodes_used == 4

    def test_matrices_consistent(self):
        p = build_placement(24, "8RR")
        assert p.latency.n == p.euclidean.n == 24
        lat = np.array([p.latency.row(i) for i in range(24)])
        assert lat.shape == (24, 24)
        assert np.allclose(lat, lat.T)
        # Ranks on the same node are at euclidean distance 0.
        for i in range(24):
            same = p.rank_nodes == p.rank_nodes[i]
            assert np.all(p.euclidean.row(i)[same] == 0.0)

    def test_custom_topology_and_latency(self):
        p = build_placement(
            8,
            OnePerNode(),
            latency_model=UniformLatency(1e-6),
            topology_factory=lambda n: FlatTopology(n),
        )
        assert p.latency_name == "uniform"
        for i in range(8):
            assert np.all(np.delete(p.latency.row(i), i) == 1e-6)

    def test_topology_too_small(self):
        with pytest.raises(AllocationError):
            build_placement(
                100, OnePerNode(), topology_factory=lambda n: FlatTopology(4)
            )

    def test_ranks_on_node(self):
        p = build_placement(16, "8G")
        assert p.ranks_on_node(0).tolist() == list(range(8))
        assert p.ranks_on_node(1).tolist() == list(range(8, 16))

    def test_placement_validation(self):
        assert "hops" not in {f.name for f in fields(Placement)}
        with pytest.raises(ConfigurationError):
            Placement(
                nranks=4,
                rank_nodes=np.arange(4),
                topology=FlatTopology(4),
                latency=PairwiseMetric(3, lambda i: np.zeros(3), name="latency"),
                euclidean=PairwiseMetric(4, lambda i: np.zeros(4), name="euclidean"),
            )

    def test_8rr_8g_same_nodes_different_numbering(self):
        prr = build_placement(32, "8RR")
        pg = build_placement(32, "8G")
        assert prr.num_nodes_used == pg.num_nodes_used == 4
        assert prr.rank_nodes.tolist() != pg.rank_nodes.tolist()

    def test_distance_numbering_interaction(self):
        """Under 8G, rank i and i+1 are usually co-located; under 8RR
        they never are — the paper's allocation/selector conflict."""
        prr = build_placement(64, "8RR")
        pg = build_placement(64, "8G")
        rr_neighbour_lat = np.mean([prr.latency.value(i, i + 1) for i in range(63)])
        g_neighbour_lat = np.mean([pg.latency.value(i, i + 1) for i in range(63)])
        assert g_neighbour_lat < rr_neighbour_lat


class TestAlignedBlockBounds:
    def test_bounds_cover_contiguously(self):
        bounds, aligned = aligned_block_bounds(16, 4, np.arange(16))
        assert bounds == [0, 4, 8, 12, 16]
        assert aligned

    def test_bounds_snap_to_node_boundaries(self):
        # 3 ranks per node: ideal cut 8 falls inside a node -> snaps to 6.
        rank_nodes = np.repeat(np.arange(6), 3)[:16]
        bounds, aligned = aligned_block_bounds(16, 2, rank_nodes)
        assert aligned
        cut = bounds[1]
        assert rank_nodes[cut] != rank_nodes[cut - 1]

    def test_interleaved_nodes_are_not_aligned(self):
        # Round-robin [0,1,0,1,...]: every adjacent pair changes node,
        # yet every node spans every block — must NOT count as aligned.
        bounds, aligned = aligned_block_bounds(16, 4, np.array([0, 1] * 8))
        assert not aligned

    def test_single_node_not_aligned(self):
        _, aligned = aligned_block_bounds(8, 4, np.zeros(8, dtype=int))
        assert not aligned

    def test_single_block_trivially_aligned(self):
        bounds, aligned = aligned_block_bounds(8, 1, np.zeros(8, dtype=int))
        assert bounds == [0, 8]
        assert aligned
