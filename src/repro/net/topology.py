"""Node topologies: who is physically where.

A :class:`Topology` assigns every compute node a coordinate vector and
derives distances from it.  The flagship model is
:class:`TofuTopology`, a software reconstruction of the K Computer's
Tofu interconnect as the paper describes it (§IV-B):

    "compute nodes are in groups of four on a blade [...] 3 blades are
    joined together, forming a 2x3x2 cube.  This cube represent 3 of
    the 6 dimensions of the Tofu network.  Finally, these cube are
    joined in a 3D mesh torus, with one dimension for the rack (8
    cubes are in the same rack), and two across racks."

Node coordinates are 6-vectors ``(x, y, z, a, b, c)``: ``(x, y, z)``
locate the cube in a 3-D torus; ``(a, b, c) in 2x3x2`` locate the node
inside its cube; ``b`` is the blade index (4 nodes per blade share
``(x, y, z, b)``).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.core.registry import registry_for
from repro.errors import TopologyError
from repro.net.coords import CoordSpace

__all__ = [
    "Topology",
    "TofuTopology",
    "Torus3D",
    "FlatTopology",
    "FatTreeTopology",
    "topology_factory_by_name",
]


class Topology(ABC):
    """Interface of a node topology."""

    #: Short identifier for configs and reports.
    name: str = "abstract"

    #: Total number of compute nodes.
    num_nodes: int

    @abstractmethod
    def coords(self, node: int) -> np.ndarray:
        """Coordinate vector of ``node``."""

    @abstractmethod
    def coords_all(self) -> np.ndarray:
        """``(num_nodes, ndim)`` coordinates of every node."""

    @abstractmethod
    def hops(self, a: int, b: int) -> int:
        """Network hop count between nodes ``a`` and ``b``."""

    @abstractmethod
    def euclidean(self, a: int, b: int) -> float:
        """Euclidean distance between nodes ``a`` and ``b``."""

    def diameter(self) -> int:
        """Upper bound on the hop count between any two nodes — the
        size of a hop-indexed table (default: loops, exact)."""
        nodes = range(self.num_nodes)
        return max(self.hops(a, b) for a in nodes for b in nodes)

    def hops_matrix(self, nodes: np.ndarray) -> np.ndarray:
        """Pairwise hop counts for the given node ids (default: loops)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        n = len(nodes)
        out = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(i + 1, n):
                h = self.hops(int(nodes[i]), int(nodes[j]))
                out[i, j] = out[j, i] = h
        return out

    def euclidean_matrix(self, nodes: np.ndarray) -> np.ndarray:
        """Pairwise Euclidean distances for the given node ids."""
        nodes = np.asarray(nodes, dtype=np.int64)
        n = len(nodes)
        out = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(i + 1, n):
                d = self.euclidean(int(nodes[i]), int(nodes[j]))
                out[i, j] = out[j, i] = d
        return out

    # ------------------------------------------------------------------
    # Row builders: O(N)-memory access for paper-scale placements.
    # A builder precomputes whatever per-job state the rows share (the
    # coordinate table, typically) and returns ``f(i) -> row``; see
    # :class:`repro.net.pairwise.PairwiseMetric`.
    # ------------------------------------------------------------------

    def hops_rows(self, nodes: np.ndarray):
        """``f(i) -> hop counts from rank i to every rank`` (default: loops)."""
        nodes = np.asarray(nodes, dtype=np.int64)

        def row(i: int) -> np.ndarray:
            a = int(nodes[i])
            return np.array(
                [self.hops(a, int(b)) for b in nodes], dtype=np.int64
            )

        return row

    def euclidean_rows(self, nodes: np.ndarray):
        """``f(i) -> Euclidean distances from rank i`` (default: loops)."""
        nodes = np.asarray(nodes, dtype=np.int64)

        def row(i: int) -> np.ndarray:
            a = int(nodes[i])
            return np.array(
                [self.euclidean(a, int(b)) for b in nodes], dtype=np.float64
            )

        return row

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise TopologyError(
                f"node {node} out of range [0, {self.num_nodes})"
            )


class _GridTopology(Topology):
    """Shared implementation for coordinate-space topologies."""

    def __init__(self, space: CoordSpace):
        self._space = space
        self.num_nodes = space.size

    @property
    def space(self) -> CoordSpace:
        return self._space

    def coords(self, node: int) -> np.ndarray:
        self._check_node(node)
        return self._space.coords_of(node)

    def coords_all(self) -> np.ndarray:
        return self._space.coords_of_many(np.arange(self.num_nodes))

    def hops(self, a: int, b: int) -> int:
        self._check_node(a)
        self._check_node(b)
        return self._space.manhattan(self._space.coords_of(a), self._space.coords_of(b))

    def euclidean(self, a: int, b: int) -> float:
        self._check_node(a)
        self._check_node(b)
        return self._space.euclidean(self._space.coords_of(a), self._space.coords_of(b))

    def diameter(self) -> int:
        space = self._space
        return sum(
            d // 2 if wrap else d - 1 for d, wrap in zip(space.dims, space.wraps)
        )

    def hops_matrix(self, nodes: np.ndarray) -> np.ndarray:
        coords = self._space.coords_of_many(np.asarray(nodes, dtype=np.int64))
        return self._space.delta_matrix(coords).sum(axis=2)

    def euclidean_matrix(self, nodes: np.ndarray) -> np.ndarray:
        coords = self._space.coords_of_many(np.asarray(nodes, dtype=np.int64))
        d = self._space.delta_matrix(coords).astype(np.float64)
        return np.sqrt((d * d).sum(axis=2))

    def hops_rows(self, nodes: np.ndarray):
        space = self._space
        coords = space.coords_of_many(np.asarray(nodes, dtype=np.int64))
        return space.delta_sum_rows(coords)

    def euclidean_rows(self, nodes: np.ndarray):
        space = self._space
        coords = space.coords_of_many(np.asarray(nodes, dtype=np.int64))
        # Sums of squared integer separations are exact in int64 and in
        # float64 alike, so this equals sqrt((d * d).sum()) bit for bit
        # (sqrt converts its int64 argument to float64 itself).
        squares = space.delta_sum_rows(coords, squared=True)

        def row(i: int) -> np.ndarray:
            return np.sqrt(squares(i))

        return row


class TofuTopology(_GridTopology):
    """Software model of the Tofu 6-D mesh/torus.

    Parameters
    ----------
    cube_grid:
        Extent ``(X, Y, Z)`` of the 3-D torus of cubes.  Each cube
        holds ``2 * 3 * 2 = 12`` nodes, so ``num_nodes = 12 * X*Y*Z``.
    """

    name = "tofu"

    #: In-cube dimensions (a, b, c): b is the blade, (a, c) the slot.
    CUBE_DIMS = (2, 3, 2)
    NODES_PER_CUBE = 12
    NODES_PER_BLADE = 4
    #: Cubes per rack on the K Computer (one torus dimension is the rack).
    CUBES_PER_RACK = 8

    def __init__(self, cube_grid: tuple[int, int, int]):
        if len(cube_grid) != 3:
            raise TopologyError(f"cube_grid must have 3 dims, got {cube_grid}")
        x, y, z = cube_grid
        space = CoordSpace(
            dims=(x, y, z, *self.CUBE_DIMS),
            # The 3-D cube grid is a torus; in-cube links do not wrap.
            wraps=(True, True, True, False, False, False),
        )
        super().__init__(space)
        self.cube_grid = (int(x), int(y), int(z))

    @classmethod
    def for_nodes(cls, n_nodes: int) -> "TofuTopology":
        """Smallest near-cubic cube grid holding ``n_nodes`` nodes.

        Mirrors the K Computer job scheduler, which "tends to
        distribute nodes in a 3D rectangle minimizing the average
        number of hops between processes".
        """
        if n_nodes < 1:
            raise TopologyError(f"need at least 1 node, got {n_nodes}")
        cubes = math.ceil(n_nodes / cls.NODES_PER_CUBE)
        # Near-cubic box x <= y <= z with x*y*z >= cubes, preferring the
        # most compact (smallest spread, then smallest volume) box.
        best: tuple[tuple[int, int], tuple[int, int, int]] | None = None
        for cx in range(1, int(round(cubes ** (1 / 3))) + 2):
            rem = math.ceil(cubes / cx)
            for cy in range(cx, int(math.isqrt(rem)) + 2):
                cz = max(cy, math.ceil(rem / cy))
                if cx * cy * cz >= cubes:
                    key = (cx * cy * cz, cz - cx)
                    if best is None or key < best[0]:
                        best = (key, (cx, cy, cz))
        assert best is not None
        return cls(best[1])

    # ------------------------------------------------------------------
    # Hierarchy queries used by the hierarchical latency model
    # ------------------------------------------------------------------

    def cube_of(self, node: int) -> tuple[int, int, int]:
        c = self.coords(node)
        return (int(c[0]), int(c[1]), int(c[2]))

    def blade_of(self, node: int) -> tuple[int, int, int, int]:
        c = self.coords(node)
        return (int(c[0]), int(c[1]), int(c[2]), int(c[4]))

    def rack_of(self, node: int) -> tuple[int, int, int]:
        """Rack id: the x dimension runs within a rack (8 cubes/rack),
        y and z enumerate racks."""
        x, y, z = self.cube_of(node)
        return (x // self.CUBES_PER_RACK, y, z)

    def same_blade(self, a: int, b: int) -> bool:
        return self.blade_of(a) == self.blade_of(b)

    def same_cube(self, a: int, b: int) -> bool:
        return self.cube_of(a) == self.cube_of(b)


class Torus3D(_GridTopology):
    """Plain 3-D torus (one node per grid point) — a simpler comparator."""

    name = "torus3d"

    def __init__(self, dims: tuple[int, int, int]):
        if len(dims) != 3:
            raise TopologyError(f"dims must have 3 entries, got {dims}")
        super().__init__(CoordSpace(tuple(dims), wraps=(True, True, True)))
        self.dims = tuple(int(d) for d in dims)

    @classmethod
    def for_nodes(cls, n_nodes: int) -> "Torus3D":
        if n_nodes < 1:
            raise TopologyError(f"need at least 1 node, got {n_nodes}")
        side = max(1, round(n_nodes ** (1 / 3)))
        while side**3 < n_nodes:
            side += 1
        return cls((side, side, side))


class FlatTopology(Topology):
    """Null model: every pair of distinct nodes is equidistant.

    This is the implicit assumption of most work-stealing theory
    ("all participating processes are equidistant from each other") —
    under it, distance-skewed selection degenerates to uniform random,
    which the ablation benchmarks verify.
    """

    name = "flat"

    def __init__(self, num_nodes: int):
        if num_nodes < 1:
            raise TopologyError(f"need at least 1 node, got {num_nodes}")
        self.num_nodes = int(num_nodes)

    def coords(self, node: int) -> np.ndarray:
        self._check_node(node)
        return np.array([node], dtype=np.int64)

    def coords_all(self) -> np.ndarray:
        return np.arange(self.num_nodes, dtype=np.int64)[:, None]

    def hops(self, a: int, b: int) -> int:
        self._check_node(a)
        self._check_node(b)
        return 0 if a == b else 1

    def euclidean(self, a: int, b: int) -> float:
        return float(self.hops(a, b))

    def diameter(self) -> int:
        return 1

    def hops_matrix(self, nodes: np.ndarray) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=np.int64)
        eq = nodes[:, None] == nodes[None, :]
        return np.where(eq, 0, 1).astype(np.int64)

    def euclidean_matrix(self, nodes: np.ndarray) -> np.ndarray:
        return self.hops_matrix(nodes).astype(np.float64)

    def hops_rows(self, nodes: np.ndarray):
        nodes = np.asarray(nodes, dtype=np.int64)

        def row(i: int) -> np.ndarray:
            return np.where(nodes == nodes[i], 0, 1).astype(np.int64)

        return row

    def euclidean_rows(self, nodes: np.ndarray):
        hops_row = self.hops_rows(nodes)

        def row(i: int) -> np.ndarray:
            return hops_row(i).astype(np.float64)

        return row


class FatTreeTopology(Topology):
    """Two-level switched tree: nodes grouped under leaf switches.

    Models commodity clusters: one hop inside a switch group, three
    hops (up-core-down) across groups.  Euclidean distance is defined
    as the hop count, giving the skewed selector a two-level weight
    profile — the structure hierarchical work stealing papers assume.
    """

    name = "fattree"

    def __init__(self, num_groups: int, nodes_per_group: int):
        if num_groups < 1 or nodes_per_group < 1:
            raise TopologyError(
                f"groups/nodes_per_group must be >= 1, got "
                f"{num_groups}/{nodes_per_group}"
            )
        self.num_groups = int(num_groups)
        self.nodes_per_group = int(nodes_per_group)
        self.num_nodes = self.num_groups * self.nodes_per_group

    def group_of(self, node: int) -> int:
        self._check_node(node)
        return node // self.nodes_per_group

    def coords(self, node: int) -> np.ndarray:
        self._check_node(node)
        return np.array(
            [node // self.nodes_per_group, node % self.nodes_per_group],
            dtype=np.int64,
        )

    def coords_all(self) -> np.ndarray:
        nodes = np.arange(self.num_nodes, dtype=np.int64)
        return np.stack(
            [nodes // self.nodes_per_group, nodes % self.nodes_per_group], axis=1
        )

    def hops(self, a: int, b: int) -> int:
        self._check_node(a)
        self._check_node(b)
        if a == b:
            return 0
        return 1 if self.group_of(a) == self.group_of(b) else 3

    def euclidean(self, a: int, b: int) -> float:
        return float(self.hops(a, b))

    def diameter(self) -> int:
        return 3

    def hops_matrix(self, nodes: np.ndarray) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=np.int64)
        groups = nodes // self.nodes_per_group
        same_node = nodes[:, None] == nodes[None, :]
        same_group = groups[:, None] == groups[None, :]
        return np.where(same_node, 0, np.where(same_group, 1, 3)).astype(np.int64)

    def euclidean_matrix(self, nodes: np.ndarray) -> np.ndarray:
        return self.hops_matrix(nodes).astype(np.float64)

    def hops_rows(self, nodes: np.ndarray):
        nodes = np.asarray(nodes, dtype=np.int64)
        groups = nodes // self.nodes_per_group

        def row(i: int) -> np.ndarray:
            same_node = nodes == nodes[i]
            same_group = groups == groups[i]
            return np.where(same_node, 0, np.where(same_group, 1, 3)).astype(
                np.int64
            )

        return row

    def euclidean_rows(self, nodes: np.ndarray):
        hops_row = self.hops_rows(nodes)

        def row(i: int) -> np.ndarray:
            return hops_row(i).astype(np.float64)

        return row


# ----------------------------------------------------------------------
# Named topology factories
# ----------------------------------------------------------------------
#
# A topology *factory* is ``f(n_nodes) -> Topology``; configs may name
# one by string so runs stay serializable (see repro.exec).  The
# registry entries therefore resolve to the factory callable itself.

_TOPOLOGIES = registry_for("topology")
_TOPOLOGIES.register("tofu", lambda: TofuTopology.for_nodes)
_TOPOLOGIES.register("torus3d", lambda: Torus3D.for_nodes)
_TOPOLOGIES.register("flat", lambda: FlatTopology)


def topology_factory_by_name(name: str):
    """Resolve a named topology factory (``"tofu"``, ``"flat"``, ...).

    Thin wrapper over ``registry.resolve("topology", name)``.
    """
    return _TOPOLOGIES.resolve(name)
