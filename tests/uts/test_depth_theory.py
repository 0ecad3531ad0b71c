"""Every named binomial and hybrid tree's depth lies inside the exact
theory's 0.5%-99.5% band (``tests/uts/depth_theory.py``).

The depth is the tree's critical path, the ``T_inf`` of the
``T1/p + O(T_inf)`` work-stealing bounds.  ``T3H`` (25.6 M nodes) is
checked by ``benchmarks/test_table1_trees.py`` instead.
"""

from __future__ import annotations

import pytest

from repro.uts.params import HYB_S, T3XS, tree_by_name
from repro.uts.tree import TreeGenerator, TreeTable
from tests.uts.depth_theory import depth_quantiles, first_binomial_level


@pytest.mark.parametrize("name", ["T3XS", "T3S", "T3M", "T3L", "T3XL", "HYB_S"])
def test_depth_inside_theory_band(name):
    params = tree_by_name(name)
    lo, hi = depth_quantiles(params, (0.005, 0.995))
    depth = TreeTable(TreeGenerator(params), node_cap=2 * 10**6).depth
    assert lo <= depth <= hi, (name, depth, lo, hi)


def test_binomial_band_matches_the_closed_form():
    """T3XS: ``P(depth <= d) = f^d(0)^200``; its 0.5%, 50% and 99.5%
    points."""
    assert first_binomial_level(T3XS) == (1, 200)
    assert depth_quantiles(T3XS, (0.005, 0.5, 0.995)) == [27, 63, 158]


def test_hybrid_composes_the_geometric_top():
    """HYB_S turns binomial at depth ``shift * gen_mx = 4``, where its
    geometric top has left 61 nodes."""
    assert first_binomial_level(HYB_S) == (4, 61)
    assert depth_quantiles(HYB_S, (0.005, 0.5, 0.995)) == [12, 28, 74]
