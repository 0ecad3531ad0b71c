"""Node topologies: who is physically where.

A :class:`Topology` places every compute node and derives the hop
counts and Euclidean distances between nodes from where they sit.  The flagship model is
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
    "FlatTopology",
]


class Topology(ABC):
    """Interface of a node topology.

    Each pairwise quantity comes in two forms over a list of node ids:
    ``*_rows`` builders, which runs read, and the dense ``*_matrix``
    broadcast, the reference the row tests compare against.
    """

    #: Short identifier for configs and reports.
    name: str = "abstract"

    #: Total number of compute nodes.
    num_nodes: int

    @abstractmethod
    def hops_matrix(self, nodes: np.ndarray) -> np.ndarray:
        """Pairwise hop counts for the given node ids."""

    @abstractmethod
    def euclidean_matrix(self, nodes: np.ndarray) -> np.ndarray:
        """Pairwise Euclidean distances for the given node ids."""

    # ------------------------------------------------------------------
    # Row builders: O(N)-memory access for paper-scale placements.
    # A builder precomputes whatever per-job state the rows share (the
    # coordinate table, typically) and returns ``f(i) -> row``; see
    # :class:`repro.net.pairwise.PairwiseMetric`.
    # ------------------------------------------------------------------

    @abstractmethod
    def hops_rows(self, nodes: np.ndarray):
        """``f(i) -> hop counts from rank i to every rank``."""

    @abstractmethod
    def euclidean_codes(self, nodes: np.ndarray):
        """``(f, values)``: ``f(i)`` is rank ``i``'s integer squared
        Euclidean distances to every rank, ``f(slice)`` a ``(len, n)``
        block of such rows, and ``values[s] == sqrt(s)`` for every
        value ``s`` a row can hold (the code form of
        :class:`repro.net.pairwise.PairwiseMetric`)."""

    def euclidean_rows(self, nodes: np.ndarray):
        """``f(i) -> Euclidean distances from rank i``."""
        squares, _ = self.euclidean_codes(nodes)

        def row(i: int) -> np.ndarray:
            # Sums of squared integer separations are exact in int64
            # and in float64 alike, so this equals sqrt((d * d).sum())
            # bit for bit (sqrt converts its int64 argument itself).
            return np.sqrt(squares(i))

        return row


class TofuTopology(Topology):
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

    def __init__(self, cube_grid: tuple[int, int, int]):
        if len(cube_grid) != 3:
            raise TopologyError(f"cube_grid must have 3 dims, got {cube_grid}")
        x, y, z = cube_grid
        self.space = CoordSpace(
            dims=(x, y, z, *self.CUBE_DIMS),
            # The 3-D cube grid is a torus; in-cube links do not wrap.
            wraps=(True, True, True, False, False, False),
        )
        self.num_nodes = self.space.size
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

    def hops_matrix(self, nodes: np.ndarray) -> np.ndarray:
        coords = self.space.coords_of_many(np.asarray(nodes, dtype=np.int64))
        return self.space.delta_matrix(coords).sum(axis=2)

    def euclidean_matrix(self, nodes: np.ndarray) -> np.ndarray:
        coords = self.space.coords_of_many(np.asarray(nodes, dtype=np.int64))
        d = self.space.delta_matrix(coords).astype(np.float64)
        return np.sqrt((d * d).sum(axis=2))

    def hops_rows(self, nodes: np.ndarray):
        coords = self.space.coords_of_many(np.asarray(nodes, dtype=np.int64))
        return self.space.delta_sum_rows(coords)

    def euclidean_codes(self, nodes: np.ndarray):
        space = self.space
        coords = space.coords_of_many(np.asarray(nodes, dtype=np.int64))
        # The farthest separation along a dimension: half of it on a
        # torus dimension, all of it on a mesh one.
        top = sum(
            (d // 2 if wraps else d - 1) ** 2
            for d, wraps in zip(space.dims, space.wraps)
        )
        values = np.sqrt(np.arange(top + 1, dtype=np.int64))
        return space.delta_sum_rows(coords, squared=True), values


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

    def euclidean_codes(self, nodes: np.ndarray):
        nodes = np.asarray(nodes, dtype=np.int64)

        def row(i) -> np.ndarray:
            # ``nodes[i, None]`` is (1,) for a rank, (len, 1) for a slice.
            return (nodes[i, None] != nodes).astype(np.int64)

        return row, np.sqrt(np.arange(2, dtype=np.int64))


# ----------------------------------------------------------------------
# Named topology factories
# ----------------------------------------------------------------------
#
# A topology *factory* is ``f(n_nodes) -> Topology``; configs may name
# one by string so runs stay serializable (see repro.exec).  The
# registry entries therefore resolve to the factory callable itself.

_TOPOLOGIES = registry_for("topology")
_TOPOLOGIES.register("tofu", lambda: TofuTopology.for_nodes)
_TOPOLOGIES.register("flat", lambda: FlatTopology)
