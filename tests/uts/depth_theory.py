"""Exact depth distribution of binomial and hybrid UTS trees.

Below its first binomial level ``k``, a binomial or hybrid tree is a
Galton-Watson process: every node has ``m`` children with probability
``q``, else none, independently.  With the offspring generating
function ``f(s) = 1 - q + q*s**m``, a subtree rooted at depth ``k``
ends by depth ``d`` with probability ``f^(d-k+1)(0)`` (``f`` iterated),
and the ``n_k`` subtrees rooted at that level are independent, so

    P(depth <= d) = f^(d-k+1)(0) ** n_k.

For a binomial tree ``k = 1`` and ``n_k = b0``.  For a hybrid tree the
geometric top decides ``n_k``; it is read off the generated tree, and
the distribution is conditional on it.  No traversal below level ``k``
is needed: the band is one loop over ``d``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.uts.params import TreeParams
from repro.uts.tree import TreeGenerator


def first_binomial_level(params: TreeParams) -> tuple[int, int]:
    """``(k, n_k)``: the first depth whose nodes draw binomial child
    counts, and how many nodes the tree has there."""
    if params.tree_type == "binomial":
        return 1, params.b0
    assert params.tree_type == "hybrid", params.tree_type
    k = max(1, math.ceil(params.shift * params.gen_mx))
    generator = TreeGenerator(params)
    state, depth = generator.root()
    states = np.array([state], dtype=np.uint64)
    depths = np.array([depth], dtype=np.int32)
    for _ in range(k):
        states, depths, _ = generator.children_batch(states, depths)
    return k, int(states.size)


def depth_quantiles(
    params: TreeParams, probabilities: tuple[float, ...]
) -> list[int]:
    """The smallest depth ``d`` with ``P(depth <= d) >= p``, per ``p``
    (``probabilities`` ascending)."""
    k, n_k = first_binomial_level(params)
    q, m = params.q, params.m
    out: list[int] = []
    s, d = 0.0, k - 1
    while len(out) < len(probabilities):
        s = 1.0 - q + q * s**m
        d += 1
        while len(out) < len(probabilities) and s**n_k >= probabilities[len(out)]:
            out.append(d)
    return out
