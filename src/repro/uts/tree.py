"""Child generation rules for UTS trees, and the tree as data.

The generator is stateless: given a node's ``(rng_state, depth)`` it
answers *how many children does this node have* and *what are their
states*.  Everything else (traversal order, who expands which node) is
the scheduler's business, which is exactly what lets work stealing
move nodes between processes freely.

:class:`TreeGenerator` has three entry points, tested against each
other:

* the scalar reference (:meth:`TreeGenerator.count_children`,
  :meth:`TreeGenerator.children`) — one node, written to be read;
* :meth:`TreeGenerator.children_list` — plain Python lists in and out,
  one quantum of a handful of nodes hashed in Python (the test oracle's
  expansion and the reference the ``uts.*`` ledger rungs time);
* :meth:`TreeGenerator.children_batch` — NumPy arrays in and out, what
  the sequential traversal and :class:`TreeTable` call on whole levels.

:class:`TreeTable` is what the simulator expands: the run's tree walked
once, breadth-first, into one child offset per node.  A node is its BFS
index and its children are an index range, so a quantum hashes nothing.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.uts.params import TreeParams
from repro.uts.rng import _GOLDEN, UINT31_MAX, RngBackend, SplitMix64Backend

__all__ = ["MAX_GEO_CHILDREN", "TreeGenerator", "TreeTable"]

#: Safety cap on geometric child counts (UTS uses MAXNUMCHILDREN=100).
MAX_GEO_CHILDREN = 100

#: Array batches at or below this size expand through the pure-int loop.
SCALAR_BATCH_CUTOFF = 64

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
        self._geo_depth_limit = params.gen_mx
        self._hybrid_switch = params.shift * params.gen_mx
        # Binomial trees over the SplitMix backend (every paper
        # experiment) get a fused list loop and a fused array path that
        # roughly halves the per-batch NumPy call count.
        self._fast_binomial = params.tree_type == "binomial" and isinstance(
            self.backend, SplitMix64Backend
        )
        # Precomputed SplitMix spawn increments ((i+1) * GOLDEN mod
        # 2^64 for sibling i) so the scalar hot loop adds a cached
        # 64-bit constant instead of multiplying big ints per child.
        if self._fast_binomial:
            mask64 = 0xFFFFFFFFFFFFFFFF
            self._incs_m: tuple[int, ...] = tuple(
                (i * _GOLDEN) & mask64 for i in range(1, params.m + 1)
            )
        else:
            self._incs_m = ()
        self._incs_b0: tuple[int, ...] | None = None

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

    # ------------------------------------------------------------------
    # List path (one quantum, hashed)
    # ------------------------------------------------------------------

    def children_list(
        self, states: list[int], depths: list[int]
    ) -> tuple[list[int], list[int]]:
        """Expand nodes held in plain Python lists.

        Produces exactly the children :meth:`children_batch` would —
        same values, parent-major order, siblings ``0..count-1`` — for
        every tree type and backend, the depth-0 root included.
        Binomial trees over the SplitMix backend (every paper
        experiment) take a fused loop with no ndarray traffic; anything
        else converts and calls :meth:`children_batch`.
        """
        if not self._fast_binomial:
            child_states, child_depths, _counts = self.children_batch(
                np.array(states, dtype=np.uint64),
                np.array(depths, dtype=np.int32),
            )
            return child_states.tolist(), child_depths.tolist()
        thr = self._bin_threshold
        mask64 = 0xFFFFFFFFFFFFFFFF
        m1 = 0xBF58476D1CE4E5B9
        m2 = 0x94D049BB133111EB
        incs_m = self._incs_m
        child_states: list[int] = []
        child_depths: list[int] = []
        append_s = child_states.append
        append_d = child_depths.append
        for s, dep in zip(states, depths):
            if dep:
                if (s >> 33) >= thr:
                    continue
                incs = incs_m
            else:
                incs = self._root_incs()
            d = dep + 1
            for inc in incs:
                # Inlined SplitMix64 spawn: add increment, Stafford mix.
                z = (s + inc) & mask64
                z = ((z ^ (z >> 30)) * m1) & mask64
                z = ((z ^ (z >> 27)) * m2) & mask64
                append_s(z ^ (z >> 31))
                append_d(d)
        return child_states, child_depths

    def _root_incs(self) -> tuple[int, ...]:
        """Spawn increments for the ``b0`` root children (built lazily)."""
        incs = self._incs_b0
        if incs is None:
            mask64 = 0xFFFFFFFFFFFFFFFF
            incs = tuple(
                (i * _GOLDEN) & mask64 for i in range(1, self.params.b0 + 1)
            )
            self._incs_b0 = incs
        return incs

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
        if self._fast_binomial and states.size and depths.min() > 0:
            # Non-root binomial batches (the root is always expanded on
            # its own at depth 0, never mixed into a batch).
            return self._children_batch_binomial(states, depths)
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

    def _children_batch_binomial(
        self, states: np.ndarray, depths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fused non-root binomial expansion (SplitMix backend only).

        Produces bit-identical children, in the same per-parent
        grouping, as the generic path — asserted by tests.  Batches at
        or below :data:`SCALAR_BATCH_CUTOFF` take a pure-Python loop:
        NumPy's fixed per-call overhead dwarfs the arithmetic on a
        handful of nodes.
        """
        from repro.uts.rng import _GOLDEN, _mix64  # local import: hot path

        n = states.size
        if n <= SCALAR_BATCH_CUTOFF:
            return self._children_small_binomial(states, depths)
        u64 = np.uint64
        m = self.params.m
        draws = (states >> u64(33)).astype(np.int64)
        mask = draws < self._bin_threshold
        counts = np.where(mask, m, 0).astype(np.int64)
        parents = states[mask]
        if not parents.size:
            return (
                np.empty(0, dtype=np.uint64),
                np.empty(0, dtype=np.int32),
                counts,
            )
        with np.errstate(over="ignore"):
            siblings = [
                _mix64(parents + u64((i + 1) * _GOLDEN & 0xFFFFFFFFFFFFFFFF))
                for i in range(m)
            ]
        child_states = np.stack(siblings, axis=1).ravel()
        child_depths = np.repeat((depths[mask] + 1).astype(np.int32), m)
        return child_states, child_depths, counts

    def _children_small_binomial(
        self, states: np.ndarray, depths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expansion of a small non-root binomial batch.

        The children come from the pure-int loop of
        :meth:`children_list` — bit-identical to the array path.
        """
        child_states, child_depths = self.children_list(
            states.tolist(), depths.tolist()
        )
        draws = (states >> np.uint64(33)).astype(np.int64)
        counts = np.where(draws < self._bin_threshold, self.params.m, 0).astype(
            np.int64
        )
        return (
            np.array(child_states, dtype=np.uint64),
            np.array(child_depths, dtype=np.int32),
            counts,
        )


class TreeTable:
    """One run's tree, expanded once, as a CSR child table.

    Nodes are numbered breadth-first from the root (0), so the children
    of node ``i`` are the consecutive indices ``first[i] ..
    first[i+1]-1``, in sibling order — the order
    :meth:`TreeGenerator.children_list` produces them in.  A node needs
    no depth: the table answers the simulator's two calls, :meth:`root`
    and :meth:`children_list`, with indices in both slots.  The stack
    decisions (sizes, chunk counts) depend only on how many children
    each node has, so a run over the table is the run over hashed
    states, event for event.

    Cost: one offset per node (int32; int64 once the tree passes
    ``2**31 - 1`` nodes), appended level by level, so the build never
    holds more than one level's arrays beside the table.  A tree past
    ``node_cap`` raises while it is built.
    """

    __slots__ = ("_first",)

    def __init__(self, generator: TreeGenerator, node_cap: int):
        state, depth = generator.root()
        states = np.array([state], dtype=np.uint64)
        depths = np.array([depth], dtype=np.int32)
        first = array("i", [1])
        size = 1
        while states.size:
            states, depths, counts = generator.children_batch(states, depths)
            ends = np.cumsum(counts)
            ends += size
            size += states.size
            if size > node_cap:
                raise SimulationError(f"run exceeded node cap {node_cap}")
            if size > _INT32_MAX and first.typecode == "i":
                first = array("q", first)
            first.frombytes(ends.astype(first.typecode).tobytes())
        self._first = memoryview(first)

    def __len__(self) -> int:
        """Number of nodes in the tree."""
        return len(self._first) - 1

    def root(self) -> tuple[int, int]:
        """The root as ``(index, index)``: node 0."""
        return 0, 0

    def children_list(
        self, nodes: list[int], depths: list[int]
    ) -> tuple[list[int], list[int]]:
        """Children of ``nodes``, parent-major, as ``(kids, kids)``."""
        first = self._first
        kids: list[int] = []
        for i in nodes:
            kids += range(first[i], first[i + 1])
        return kids, kids
