"""Child generation rules for UTS trees, and the tree as data.

The generator is stateless: given a node's ``(rng_state, depth)`` it
answers *how many children does this node have* and *what are their
states*.  Everything else (traversal order, who expands which node) is
the scheduler's business, which is exactly what lets work stealing
move nodes between processes freely.

:class:`TreeGenerator` has two ways to expand nodes, tested against
each other:

* the scalar reference (:meth:`TreeGenerator.count_children`,
  :meth:`TreeGenerator.children`, and :meth:`TreeGenerator.expand`
  looping it over a list of ``(state, depth)`` nodes) — one node at a
  time, written to be read;
* :meth:`TreeGenerator.children_batch` — NumPy arrays in and out, what
  :class:`TreeTable` calls on whole levels.

:class:`TreeTable` is the only walk of a tree: the run's tree expanded
once, breadth-first, into one child offset per node.  The simulator
expands it (a node is its BFS index and its children are an index
range, so a quantum hashes nothing) and the sequential count reads its
size, depth and leaves.

Both answer the simulator's two calls: ``root()``, the node rank 0
starts with, and ``expand(nodes)``, the children of a quantum's nodes
as one parent-major list.  :func:`tree_table` is how the simulator gets
its table: a process holds the last one it built, so a sweep over one
tree walks it once.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.uts.params import TreeParams
from repro.uts.rng import UINT31_MAX, RngBackend, SplitMix64Backend

__all__ = ["MAX_GEO_CHILDREN", "TreeGenerator", "TreeTable", "tree_table"]

#: Safety cap on geometric child counts (UTS uses MAXNUMCHILDREN=100).
MAX_GEO_CHILDREN = 100

#: Largest child offset a :class:`TreeTable` stores as int32.
_INT32_MAX = 2**31 - 1

_TWO_PI = 2.0 * math.pi


class TreeGenerator:
    """Deterministic child generation for one tree parameter set.

    Parameters
    ----------
    params:
        The tree description (type, seed, branching parameters).
    backend:
        Splittable RNG backend; defaults to the fast
        :class:`~repro.uts.rng.SplitMix64Backend`.
    """

    def __init__(self, params: TreeParams, backend: RngBackend | None = None):
        self.params = params
        self.backend = backend if backend is not None else SplitMix64Backend()
        # Precompute the 31-bit binomial threshold once; comparing
        # integer draws against it avoids float conversion per node.
        self._bin_threshold = int(params.q * UINT31_MAX)
        self._hybrid_switch = params.shift * params.gen_mx

    # ------------------------------------------------------------------
    # Root
    # ------------------------------------------------------------------

    def root(self) -> tuple[int, int]:
        """Return ``(state, depth)`` of the tree root."""
        return self.backend.root_state(self.params.root_seed), 0

    # ------------------------------------------------------------------
    # Scalar reference path
    # ------------------------------------------------------------------

    def count_children(self, state: int, depth: int) -> int:
        """Number of children of the node ``(state, depth)``."""
        kind = self.params.tree_type
        if kind == "binomial":
            return self._count_binomial(state, depth)
        if kind == "geometric":
            return self._count_geometric(state, depth)
        # hybrid: geometric in the upper part of the tree, binomial fringe
        if depth < self._hybrid_switch:
            return self._count_geometric(state, depth)
        return self._count_binomial(state, depth)

    def _count_binomial(self, state: int, depth: int) -> int:
        if depth == 0:
            return self.params.b0
        draw = self.backend.to_uint31(state)
        return self.params.m if draw < self._bin_threshold else 0

    def _expected_branching(self, depth: int) -> float:
        """Shape function: expected branching factor at ``depth`` (geometric)."""
        p = self.params
        if depth >= p.gen_mx:
            return 0.0
        if p.shape == "fixed":
            return float(p.b0)
        if p.shape == "linear":
            return p.b0 * (1.0 - depth / p.gen_mx)
        if p.shape == "expdec":
            alpha = math.log(max(p.b0, 2)) / p.gen_mx
            return p.b0 * math.exp(-alpha * depth)
        if p.shape == "cyclic":
            if depth > 5 * p.gen_mx:
                return 0.0
            return float(p.b0) ** math.sin(_TWO_PI * depth / p.gen_mx)
        raise ConfigurationError(f"unknown geometric shape {p.shape!r}")

    def _count_geometric(self, state: int, depth: int) -> int:
        b_i = self._expected_branching(depth)
        if b_i <= 0.0:
            return 0
        # Geometric distribution with mean b_i: success probability
        # p = 1/(1+b_i), count = floor(log(1-u)/log(1-p)).
        prob = 1.0 / (1.0 + b_i)
        u = self.backend.to_prob(state)
        count = int(math.floor(math.log(1.0 - u) / math.log(1.0 - prob)))
        return min(count, MAX_GEO_CHILDREN)

    def children(self, state: int, depth: int) -> tuple[list[int], int]:
        """Return ``(child_states, child_depth)`` of one node (scalar path)."""
        count = self.count_children(state, depth)
        spawn = self.backend.spawn
        return [spawn(state, i) for i in range(count)], depth + 1

    def expand(self, nodes: list[tuple[int, int]]) -> list[tuple[int, int]]:
        """:meth:`children` over ``(state, depth)`` nodes, parent-major."""
        kids: list[tuple[int, int]] = []
        for state, depth in nodes:
            states, kid_depth = self.children(state, depth)
            kids += [(s, kid_depth) for s in states]
        return kids

    def children_list(
        self, states: list[int], depths: list[int]
    ) -> tuple[list[int], list[int]]:
        """:meth:`children` over split lists (the frozen ledger rung
        ``uts.tree.children_nodes_per_s`` times this), parent-major."""
        child_states: list[int] = []
        child_depths: list[int] = []
        for state, depth in zip(states, depths):
            kids, kid_depth = self.children(state, depth)
            child_states += kids
            child_depths += [kid_depth] * len(kids)
        return child_states, child_depths

    # ------------------------------------------------------------------
    # Vectorised batch path
    # ------------------------------------------------------------------

    def count_children_batch(self, states: np.ndarray, depths: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`count_children` over matching arrays."""
        states = np.asarray(states, dtype=np.uint64)
        depths = np.asarray(depths, dtype=np.int32)
        kind = self.params.tree_type
        if kind == "binomial":
            return self._count_binomial_batch(states, depths)
        if kind == "geometric":
            return self._count_geometric_batch(states, depths)
        geo_mask = depths < self._hybrid_switch
        counts = self._count_binomial_batch(states, depths)
        if geo_mask.any():
            counts[geo_mask] = self._count_geometric_batch(
                states[geo_mask], depths[geo_mask]
            )
        return counts

    def _count_binomial_batch(
        self, states: np.ndarray, depths: np.ndarray
    ) -> np.ndarray:
        draws = self.backend.to_uint31_array(states)
        counts = np.where(draws < self._bin_threshold, self.params.m, 0).astype(
            np.int64
        )
        counts[depths == 0] = self.params.b0
        return counts

    def _count_geometric_batch(
        self, states: np.ndarray, depths: np.ndarray
    ) -> np.ndarray:
        # The shape function is cheap; evaluate it per distinct depth
        # (a batch rarely spans more than a handful of depths).
        counts = np.zeros(states.shape[0], dtype=np.int64)
        draws = self.backend.to_uint31_array(states).astype(np.float64) / UINT31_MAX
        for depth in np.unique(depths):
            b_i = self._expected_branching(int(depth))
            mask = depths == depth
            if b_i <= 0.0:
                continue
            prob = 1.0 / (1.0 + b_i)
            log1mp = math.log(1.0 - prob)
            vals = np.floor(np.log1p(-draws[mask]) / log1mp).astype(np.int64)
            counts[mask] = np.minimum(vals, MAX_GEO_CHILDREN)
        return counts

    def children_batch(
        self, states: np.ndarray, depths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand a batch of nodes at once.

        Returns
        -------
        child_states : uint64 array
            States of all children, grouped by parent (parent order
            preserved, sibling order ``0..count-1`` within a parent).
        child_depths : int32 array
            Depth of each child.
        counts : int64 array
            Per-parent child counts (same length as ``states``).
        """
        states = np.asarray(states, dtype=np.uint64)
        depths = np.asarray(depths, dtype=np.int32)
        counts = self.count_children_batch(states, depths)
        total = int(counts.sum())
        if total == 0:
            return (
                np.empty(0, dtype=np.uint64),
                np.empty(0, dtype=np.int32),
                counts,
            )
        parent_states = np.repeat(states, counts)
        parent_depths = np.repeat(depths, counts)
        # Sibling index within each parent: arange(total) minus each
        # child's parent's starting offset.
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        sibling = np.arange(total, dtype=np.uint64) - np.repeat(
            starts.astype(np.uint64), counts
        )
        child_states = self.backend.spawn_array(parent_states, sibling)
        child_depths = (parent_depths + 1).astype(np.int32)
        return child_states, child_depths, counts


class TreeTable:
    """One run's tree, expanded once, as a CSR child table.

    Nodes are numbered breadth-first from the root (0), so the children
    of node ``i`` are the consecutive indices ``first[i] ..
    first[i+1]-1``, in sibling order — the order
    :meth:`TreeGenerator.expand` produces them in.  A node needs no
    depth: the table answers the simulator's two calls, :meth:`root`
    and :meth:`expand`, with plain indices.  The stack decisions
    (sizes, chunk counts) depend only on how many children each node
    has, so a run over the table is the run over hashed states, event
    for event.  :attr:`depth`, :attr:`leaves` and ``len`` are what the
    sequential count reports.

    Cost: one offset per node (int32; int64 once the tree passes
    ``2**31 - 1`` nodes), appended level by level, so the build never
    holds more than one level's arrays beside the table.  A tree past
    ``node_cap`` raises while it is built.  The offsets are read-only:
    one table serves every run of its tree in a process.
    """

    __slots__ = ("_first", "depth", "__weakref__")

    def __init__(self, generator: TreeGenerator, node_cap: int):
        state, depth = generator.root()
        states = np.array([state], dtype=np.uint64)
        depths = np.array([depth], dtype=np.int32)
        first = array("i", [1])
        size = 1
        #: Depth of the deepest node: breadth-first levels minus one.
        self.depth = -1
        while states.size:
            self.depth += 1
            states, depths, counts = generator.children_batch(states, depths)
            ends = np.cumsum(counts)
            ends += size
            size += states.size
            if size > node_cap:
                raise SimulationError(f"run exceeded node cap {node_cap}")
            if size > _INT32_MAX and first.typecode == "i":
                first = array("q", first)
            first.frombytes(ends.astype(first.typecode).tobytes())
        self._first = memoryview(first).toreadonly()

    def __len__(self) -> int:
        """Number of nodes in the tree."""
        return len(self._first) - 1

    @property
    def leaves(self) -> int:
        """Number of childless nodes: zero-width offset ranges."""
        first = np.asarray(self._first)
        return int(np.count_nonzero(first[1:] == first[:-1]))

    def root(self) -> int:
        """The root: node 0."""
        return 0

    def expand(self, nodes: list[int]) -> list[int]:
        """Children of ``nodes``, parent-major."""
        first = self._first
        kids: list[int] = []
        for i in nodes:
            kids += range(first[i], first[i + 1])
        return kids


#: The last table :func:`tree_table` built, under its key.
_held: dict = {}


def tree_table(
    params: TreeParams, backend: RngBackend | None, node_cap: int
) -> TreeTable:
    """The table of ``params`` under ``backend``, held for the next run.

    The process keeps one table, keyed on ``(params, type(backend),
    backend.name)`` (``None`` is SplitMix64); a new key drops it before
    building, so the process never holds two.  ``node_cap`` bounds the
    tree, not the key: a held table past the cap raises what its build
    would have raised.
    """
    generator = TreeGenerator(params, backend)
    key = (params, type(generator.backend), generator.backend.name)
    table = _held.get(key)
    if table is None:
        _held.clear()
        table = _held[key] = TreeTable(generator, node_cap)
    if len(table) > node_cap:
        raise SimulationError(f"run exceeded node cap {node_cap}")
    return table
