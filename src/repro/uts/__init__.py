"""UTS (Unbalanced Tree Search) benchmark substrate.

This subpackage is a from-scratch Python implementation of the UTS
benchmark of Prins/Olivier et al.: an implicit, deterministic, heavily
unbalanced random tree whose parallel traversal requires dynamic load
balancing.  Each tree node carries a splittable RNG state from which
both its number of children and the children's states are derived, so
any process holding a node can generate its whole subtree without
communication.

Modules
-------
``rng``
    Splittable RNG backends (SHA-1 based, faithful to UTS; SplitMix64,
    vectorised and fast).
``params``
    Tree parameter sets, including the paper's T3XXL / T3WL trees and
    the scaled stand-ins used by the benchmarks.
``tree``
    Child-generation rules (binomial, geometric, hybrid): a scalar
    reference and one vectorised path; and ``TreeTable``, the only walk
    of a tree: one run's tree expanded once into a breadth-first child
    table, which is what the simulator expands.
``stack``
    The chunked steal-stacks with a private working chunk, whose chunks
    are arithmetic: ``RangeStack`` holds table indices as index ranges
    (the simulator's), ``ChunkedStack`` any node in one flat list.
``sequential``
    The ground-truth counts (size, depth, leaves), read off a
    ``TreeTable``.
"""

from repro.uts.params import (
    TreeParams,
    TREES,
    tree_by_name,
    T3XXL,
    T3WL,
    T3XS,
    T3S,
    T3M,
    T3L,
    GEO_S,
    HYB_S,
)
from repro.uts.rng import RngBackend, Sha1Backend, SplitMix64Backend
from repro.uts.tree import TreeGenerator, TreeTable
from repro.uts.stack import ChunkedStack, RangeStack
from repro.uts.sequential import SequentialResult, sequential_count

__all__ = [
    "TreeParams",
    "TREES",
    "tree_by_name",
    "T3XXL",
    "T3WL",
    "T3XS",
    "T3S",
    "T3M",
    "T3L",
    "GEO_S",
    "HYB_S",
    "RngBackend",
    "Sha1Backend",
    "SplitMix64Backend",
    "TreeGenerator",
    "TreeTable",
    "ChunkedStack",
    "RangeStack",
    "SequentialResult",
    "sequential_count",
]
