"""Tests for tree parameter validation and the named-tree registry."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.uts.params import (
    T3L,
    T3S,
    T3WL,
    T3XXL,
    TREES,
    TreeParams,
    tree_by_name,
)
from repro.uts.rng import backend_by_name
from repro.uts.tree import TreeGenerator


class TestValidation:
    def test_valid_binomial(self):
        p = TreeParams(name="x", tree_type="binomial", root_seed=0, q=0.3)
        assert p.m * p.q < 1.0

    def test_unknown_tree_type(self):
        with pytest.raises(ConfigurationError):
            TreeParams(name="x", tree_type="ternary", root_seed=0)

    def test_unknown_shape(self):
        with pytest.raises(ConfigurationError):
            TreeParams(name="x", tree_type="geometric", root_seed=0, shape="spiral")

    def test_supercritical_rejected(self):
        with pytest.raises(ConfigurationError):
            TreeParams(name="x", tree_type="binomial", root_seed=0, m=2, q=0.5)

    def test_supercritical_hybrid_rejected(self):
        # The binomial fringe of a hybrid tree would never die out.
        with pytest.raises(ConfigurationError, match="hybrid tree must be subcritical"):
            TreeParams(name="x", tree_type="hybrid", root_seed=0, m=2, q=0.6)
        # Geometric trees never read m or q.
        TreeParams(name="x", tree_type="geometric", root_seed=0, m=2, q=0.6)

    @pytest.mark.parametrize("backend", ["sha1", "splitmix64"])
    def test_root_seed_is_signed_64_bit(self, backend):
        for seed in (-(2**63), 2**63 - 1):
            p = TreeParams(name="x", tree_type="binomial", root_seed=seed, b0=3)
            TreeGenerator(p, backend_by_name(backend)).root()
        for seed in (-(2**63) - 1, 2**63, 2**64 + 316):
            with pytest.raises(ConfigurationError, match="signed 64-bit"):
                TreeParams(name="x", tree_type="binomial", root_seed=seed)

    def test_q_out_of_range(self):
        with pytest.raises(ConfigurationError):
            TreeParams(name="x", tree_type="binomial", root_seed=0, q=1.5)
        with pytest.raises(ConfigurationError):
            TreeParams(name="x", tree_type="binomial", root_seed=0, q=-0.1)

    def test_bad_b0(self):
        with pytest.raises(ConfigurationError):
            TreeParams(name="x", tree_type="binomial", root_seed=0, b0=0)

    def test_bad_m(self):
        with pytest.raises(ConfigurationError):
            TreeParams(name="x", tree_type="binomial", root_seed=0, m=0, q=0.3)

    def test_bad_gen_mx(self):
        with pytest.raises(ConfigurationError):
            TreeParams(name="x", tree_type="geometric", root_seed=0, gen_mx=0)

    def test_bad_shift(self):
        with pytest.raises(ConfigurationError):
            TreeParams(name="x", tree_type="hybrid", root_seed=0, q=0.4, shift=0.0)

    def test_frozen(self):
        p = TreeParams(name="x", tree_type="binomial", root_seed=0, q=0.3)
        with pytest.raises(AttributeError):
            p.q = 0.4  # type: ignore[misc]


class TestAnalytics:
    def test_expected_subtree_size(self):
        p = TreeParams(name="x", tree_type="binomial", root_seed=0, m=2, q=0.25)
        assert p.expected_subtree_size == pytest.approx(2.0)

    def test_analytic_expected_size(self):
        p = TreeParams(
            name="x", tree_type="binomial", root_seed=0, b0=100, m=2, q=0.25
        )
        assert p.analytic_expected_size == pytest.approx(201.0)

    def test_subtree_size_binomial_only(self):
        p = TreeParams(name="x", tree_type="geometric", root_seed=0)
        with pytest.raises(ConfigurationError):
            _ = p.expected_subtree_size


class TestPaperTrees:
    """Table I of the paper, reproduced verbatim."""

    def test_t3xxl_parameters(self):
        assert T3XXL.root_seed == 316
        assert T3XXL.b0 == 2000
        assert T3XXL.m == 2
        assert T3XXL.q == 0.499995
        assert T3XXL.expected_size == 2_793_220_501

    def test_t3wl_parameters(self):
        assert T3WL.root_seed == 559
        assert T3WL.b0 == 2000
        assert T3WL.m == 2
        assert T3WL.q == 0.4999995
        assert T3WL.expected_size == 157_063_495_159

    def test_paper_tree_analytic_order_of_magnitude(self):
        # Expected size 1 + b0/(1-2q) = 1 + 2000 * 1e5 = 2e8; the
        # published realised size is 2.79e9 — a heavy-tail draw, but
        # within ~15x of the mean, sanity-checking the formula.
        assert T3XXL.analytic_expected_size == pytest.approx(2.000e8, rel=1e-3)

    def test_scaled_trees_keep_structure(self):
        for tree in (T3S, T3L):
            assert tree.tree_type == "binomial"
            assert tree.m == T3XXL.m
            # Root fan-out stays in the paper's regime (T3L widens it to
            # preserve width at the simulated rank counts, see params.py).
            assert tree.b0 >= T3XXL.b0
            assert tree.m * tree.q < 1.0


class TestRegistry:
    def test_contains_paper_and_scaled_trees(self):
        for name in ("T3XXL", "T3WL", "T3S", "T3L", "GEO_S", "HYB_S"):
            assert name in TREES

    def test_lookup_roundtrip(self):
        for name, params in TREES.items():
            assert tree_by_name(name) is params

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            tree_by_name("T9ZZZ")

    def test_names_consistent(self):
        for name, params in TREES.items():
            assert params.name == name
