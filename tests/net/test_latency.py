"""Tests for latency models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.net.latency import (
    HierarchicalLatency,
    KComputerLatency,
    UniformLatency,
)
from repro.net.topology import FlatTopology, TofuTopology

TOFU = TofuTopology((2, 2, 2))
NODES = np.arange(48, dtype=np.int64)

ALL_MODELS = [
    UniformLatency(2e-6),
    HierarchicalLatency(),
    KComputerLatency(),
]


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
class TestLatencyContract:
    def test_shape_and_symmetry(self, model):
        m = model.matrix(TOFU, NODES)
        assert m.shape == (48, 48)
        assert np.allclose(m, m.T)

    def test_zero_diagonal(self, model):
        m = model.matrix(TOFU, NODES)
        assert np.all(np.diag(m) == 0.0)

    def test_nonnegative(self, model):
        m = model.matrix(TOFU, NODES)
        assert np.all(m >= 0.0)

    def test_positive_off_diagonal(self, model):
        m = model.matrix(TOFU, NODES)
        off = m[~np.eye(48, dtype=bool)]
        assert np.all(off > 0.0)


class TestUniform:
    def test_constant(self):
        m = UniformLatency(3e-6).matrix(FlatTopology(8), np.arange(8))
        off = m[~np.eye(8, dtype=bool)]
        assert np.all(off == 3e-6)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformLatency(-1.0)


class TestHierarchical:
    def test_level_ordering_enforced(self):
        with pytest.raises(ConfigurationError):
            HierarchicalLatency(intra_node=1e-6, blade=5e-7, cube=1e-6)

    def test_requires_tofu(self):
        with pytest.raises(ConfigurationError):
            HierarchicalLatency().matrix(FlatTopology(4), np.arange(4))

    def test_levels(self):
        model = HierarchicalLatency(
            intra_node=1e-7, blade=2e-7, cube=3e-7, base=1e-6, per_hop=1e-7
        )
        t = TofuTopology((3, 2, 2))
        # Build specific rank placements: two on one node, two on one
        # blade, two in one cube, two across cubes.
        coords = [
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 0, 0],  # same node
            [0, 0, 0, 1, 0, 0],  # same blade b=0
            [0, 0, 0, 0, 1, 0],  # other blade
            [2, 1, 0, 0, 0, 0],  # other cube
        ]
        nodes = np.ravel_multi_index(np.transpose(coords), t.space.dims)
        m = model.matrix(t, nodes)
        assert m[0, 1] == pytest.approx(1e-7)  # same node
        assert m[0, 2] == pytest.approx(2e-7)  # same blade
        assert m[0, 3] == pytest.approx(3e-7)  # same cube
        # Across cubes: wrap makes (2,1,0) 1+1 hops from (0,0,0).
        assert m[0, 4] == pytest.approx(1e-6 + 2e-7)

    def test_monotone_with_hierarchy(self):
        """Latency never decreases as the hierarchy level widens."""
        model = KComputerLatency()
        assert model.intra_node < model.blade < model.cube < model.base
        m = model.matrix(TOFU, NODES)
        # The integer cube and blade keys code_rows compares.
        cube = NODES // TOFU.NODES_PER_CUBE
        blade = cube * TOFU.CUBE_DIMS[1] + TOFU.space.coords_of_many(NODES)[:, 4]
        in_cube = cube[:, None] == cube[None, :]
        in_blade = blade[:, None] == blade[None, :]
        off = ~np.eye(48, dtype=bool)
        blade_lat = m[in_blade & off]
        cube_lat = m[in_cube & ~in_blade]
        cross_lat = m[~in_cube]
        assert blade_lat.max() < cube_lat.min() < cross_lat.min()


class TestKComputerCalibration:
    def test_near_far_ratio_significant(self):
        """Far latency must dominate near latency by >2x at 64+ nodes —
        otherwise the paper's mechanism cannot manifest."""
        topo = TofuTopology.for_nodes(128)
        m = KComputerLatency().matrix(topo, np.arange(128))
        off = m[~np.eye(128, dtype=bool)]
        assert off.max() / off.min() > 2.0

    def test_microsecond_scale(self):
        topo = TofuTopology.for_nodes(64)
        m = KComputerLatency().matrix(topo, np.arange(64))
        off = m[~np.eye(64, dtype=bool)]
        assert 1e-7 < off.min() < off.max() < 1e-4
