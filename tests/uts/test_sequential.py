"""Tests for the sequential ground-truth traversal."""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.uts.params import GEO_S, T3XS, TreeParams
from repro.uts.rng import Sha1Backend, SplitMix64Backend
from repro.uts.sequential import sequential_count
from repro.uts.tree import TreeGenerator


def _scalar_count(params: TreeParams, backend=None) -> tuple[int, int, int]:
    """Plain recursive-style scalar traversal (independent reference)."""
    gen = TreeGenerator(params, backend)
    stack = [gen.root()]
    total = leaves = max_depth = 0
    while stack:
        state, depth = stack.pop()
        total += 1
        max_depth = max(max_depth, depth)
        children, child_depth = gen.children(state, depth)
        if not children:
            leaves += 1
        for c in children:
            stack.append((c, child_depth))
    return total, max_depth, leaves


BACKENDS = [Sha1Backend(), SplitMix64Backend()]


class TestAgainstScalarReference:
    """The scalar stack walk is the independent check on the table's
    size, ``depth`` and ``leaves``."""

    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
    @pytest.mark.parametrize("tree", [T3XS, GEO_S], ids=lambda t: t.name)
    def test_named_tree(self, tree, backend):
        res = sequential_count(tree, backend=backend)
        assert (res.total_nodes, res.max_depth, res.leaves) == _scalar_count(
            tree, backend
        )

    @pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
    def test_binomial_micro(self, backend, micro_tree):
        res = sequential_count(micro_tree, backend=backend)
        total, max_depth, leaves = _scalar_count(micro_tree, backend)
        assert res.total_nodes == total
        assert res.max_depth == max_depth
        assert res.leaves == leaves

    def test_geometric(self):
        small_geo = TreeParams(
            name="g", tree_type="geometric", root_seed=29, b0=3, gen_mx=6
        )
        res = sequential_count(small_geo)
        total, max_depth, leaves = _scalar_count(small_geo)
        assert (res.total_nodes, res.max_depth, res.leaves) == (
            total,
            max_depth,
            leaves,
        )

    def test_hybrid(self):
        hyb = TreeParams(
            name="h",
            tree_type="hybrid",
            root_seed=11,
            b0=3,
            m=2,
            q=0.4,
            gen_mx=6,
            shift=0.5,
        )
        res = sequential_count(hyb)
        total, max_depth, leaves = _scalar_count(hyb)
        assert (res.total_nodes, res.max_depth, res.leaves) == (
            total,
            max_depth,
            leaves,
        )


class TestResultInvariants:
    def test_deterministic(self, tiny_tree):
        assert sequential_count(tiny_tree) == sequential_count(tiny_tree)

    def test_leaf_interior_partition(self, tiny_tree):
        res = sequential_count(tiny_tree)
        assert res.leaves + res.interior == res.total_nodes
        assert res.leaves > 0
        assert res.interior > 0

    def test_binomial_leaf_fraction(self, tiny_tree):
        # For binomial trees with m=2, roughly 1-q of non-root nodes are
        # leaves: leaf fraction should be close to 1 - q.
        res = sequential_count(tiny_tree)
        frac = res.leaves / res.total_nodes
        assert abs(frac - (1 - tiny_tree.q)) < 0.05

    def test_geo_depth_bounded(self):
        res = sequential_count(GEO_S)
        assert res.max_depth <= GEO_S.gen_mx

    def test_node_cap_enforced(self, tiny_tree):
        with pytest.raises(ReproError):
            sequential_count(tiny_tree, node_cap=10)

    def test_t3xs_realised_size_near_expected(self):
        # Realised size should be within a factor ~4 of the analytic
        # expectation (heavy-tailed but finite variance).
        res = sequential_count(T3XS)
        expected = T3XS.analytic_expected_size
        assert expected / 4 < res.total_nodes < expected * 4
