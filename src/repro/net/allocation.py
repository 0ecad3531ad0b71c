"""Process allocation: mapping MPI ranks onto compute nodes.

The paper compares three allocations (§II-B):

* ``1/N`` — one MPI process per compute node
  (:class:`OnePerNode`);
* ``8RR`` — 8 processes per node with *round-robin* numbering, so
  consecutive ranks land on different nodes
  (:class:`RoundRobinPacked` with ``per_node=8``);
* ``8G`` — 8 processes per node with *grouped* numbering, so ranks
  ``8k..8k+7`` share a node (:class:`GroupedPacked` with
  ``per_node=8``).

The interaction between numbering and the reference round-robin victim
selector is the paper's first finding: under 8RR, "the deterministic
round robin victim selection is in direct conflict with the MPI
process allocation".

:func:`build_placement` combines an allocation with a topology and a
latency model into a :class:`Placement`: the per-rank coordinates,
pairwise distances and pairwise latencies every other subsystem needs.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.registry import registry_for
from repro.errors import AllocationError, ConfigurationError
from repro.net.latency import KComputerLatency, LatencyModel
from repro.net.pairwise import PairwiseMetric
from repro.net.topology import TofuTopology, Topology

__all__ = [
    "ProcessAllocation",
    "OnePerNode",
    "RoundRobinPacked",
    "GroupedPacked",
    "Placement",
    "build_placement",
    "aligned_block_bounds",
]


def aligned_block_bounds(
    nranks: int, nblocks: int, rank_nodes
) -> tuple[list[int], bool]:
    """Contiguous rank-block boundaries, snapped to node boundaries.

    Returns ``(bounds, aligned)`` with ``bounds[s]..bounds[s+1]`` the
    rank range of block ``s``.  Each ideal cut ``s * nranks / nblocks``
    is moved down to the nearest index where the hosting node changes,
    so no compute node spans two blocks and cross-block traffic is
    guaranteed cross-node.  If a cut cannot be node-aligned (e.g. a
    randomised allocation interleaves nodes arbitrarily), the ideal
    cuts are kept and ``aligned`` is False.

    The locality regions of the steal-protocol layer
    (:class:`repro.protocol.regions.RegionMap`) partition the rank
    space through this function, which is what keeps them aligned with
    the allocation's node blocks.
    """
    nblocks = max(1, min(nblocks, nranks))
    ideal = [(s * nranks) // nblocks for s in range(nblocks + 1)]
    if nblocks == 1:
        return ideal, True
    snapped = [0]
    for cut in ideal[1:-1]:
        j = cut
        while j > snapped[-1] and rank_nodes[j] == rank_nodes[j - 1]:
            j -= 1
        if j > snapped[-1]:
            snapped.append(j)
    snapped.append(nranks)
    if len(snapped) == nblocks + 1:
        # A run boundary is not enough: interleaved allocations (e.g.
        # round-robin [0,1,0,1,...]) change node at every rank while
        # every node still spans every block.  Alignment requires each
        # node's ranks to land entirely inside one block.
        block_of: dict = {}
        s = 0
        aligned = True
        for r in range(nranks):
            while r >= snapped[s + 1]:
                s += 1
            node = rank_nodes[r]
            prev = block_of.setdefault(node, s)
            if prev != s:
                aligned = False
                break
        if aligned:
            return snapped, True
    return ideal, False


class ProcessAllocation(ABC):
    """Interface: decide how many nodes a job needs and place ranks."""

    name: str = "abstract"

    @abstractmethod
    def nodes_needed(self, nranks: int) -> int:
        """Number of compute nodes required for ``nranks`` processes."""

    @abstractmethod
    def rank_nodes(self, nranks: int) -> np.ndarray:
        """``rank_nodes[r]`` = index (0-based, within the job's node
        set) of the node hosting rank ``r``."""

    def _check(self, nranks: int) -> None:
        if nranks < 1:
            raise AllocationError(f"need at least 1 rank, got {nranks}")


class OnePerNode(ProcessAllocation):
    """The paper's ``1/N``: one process per compute node."""

    name = "1/N"

    def nodes_needed(self, nranks: int) -> int:
        self._check(nranks)
        return nranks

    def rank_nodes(self, nranks: int) -> np.ndarray:
        self._check(nranks)
        return np.arange(nranks, dtype=np.int64)


class RoundRobinPacked(ProcessAllocation):
    """``kRR``: k processes per node, round-robin rank numbering.

    Ranks ``i, i + M, i + 2M, ...`` (``M`` = number of nodes) share a
    node, so *consecutive* ranks are on *different* nodes.
    """

    def __init__(self, per_node: int = 8):
        if per_node < 1:
            raise AllocationError(f"per_node must be >= 1, got {per_node}")
        self.per_node = int(per_node)
        self.name = f"{per_node}RR"

    def nodes_needed(self, nranks: int) -> int:
        self._check(nranks)
        return math.ceil(nranks / self.per_node)

    def rank_nodes(self, nranks: int) -> np.ndarray:
        self._check(nranks)
        nodes = self.nodes_needed(nranks)
        return np.arange(nranks, dtype=np.int64) % nodes


class GroupedPacked(ProcessAllocation):
    """``kG``: k processes per node, grouped rank numbering.

    Ranks ``k*j .. k*j + k - 1`` share node ``j``, so consecutive
    ranks are (mostly) on the *same* node.
    """

    def __init__(self, per_node: int = 8):
        if per_node < 1:
            raise AllocationError(f"per_node must be >= 1, got {per_node}")
        self.per_node = int(per_node)
        self.name = f"{per_node}G"

    def nodes_needed(self, nranks: int) -> int:
        self._check(nranks)
        return math.ceil(nranks / self.per_node)

    def rank_nodes(self, nranks: int) -> np.ndarray:
        self._check(nranks)
        return np.arange(nranks, dtype=np.int64) // self.per_node


_ALLOCATIONS = registry_for("allocation")
_ALLOCATIONS.register("1/N", OnePerNode)
_ALLOCATIONS.register("8RR", lambda: RoundRobinPacked(8))
_ALLOCATIONS.register("8G", lambda: GroupedPacked(8))
_ALLOCATIONS.register("4RR", lambda: RoundRobinPacked(4))
_ALLOCATIONS.register("4G", lambda: GroupedPacked(4))


@dataclass(frozen=True)
class Placement:
    """A fully-resolved job placement.

    Attributes
    ----------
    nranks:
        Number of MPI processes.
    rank_nodes:
        ``rank_nodes[r]`` = topology node id hosting rank ``r``.
    topology:
        The node topology the job runs on.
    latency:
        :class:`~repro.net.pairwise.PairwiseMetric` of one-way message
        latencies (seconds) between ranks — read by row, so paper-scale
        jobs never hold the dense N x N matrix.
    euclidean:
        Pairwise Euclidean distances between rank positions — the
        quantity the paper's skewed victim selection weights by.
    allocation_name, latency_name:
        Provenance, for reports.
    """

    nranks: int
    rank_nodes: np.ndarray
    topology: Topology
    latency: PairwiseMetric
    euclidean: PairwiseMetric
    allocation_name: str = "?"
    latency_name: str = "?"

    def __post_init__(self) -> None:
        n = self.nranks
        for metric in (self.latency, self.euclidean):
            if metric.n != n:
                raise ConfigurationError(
                    f"{metric.name} metric has {metric.n} ranks, placement {n}"
                )
        if len(self.rank_nodes) != n:
            raise ConfigurationError(
                f"rank_nodes length {len(self.rank_nodes)} != nranks {n}"
            )

    @property
    def num_nodes_used(self) -> int:
        return int(len(np.unique(self.rank_nodes)))


def build_placement(
    nranks: int,
    allocation: ProcessAllocation | str = "1/N",
    latency_model: LatencyModel | None = None,
    topology_factory: Callable[[int], Topology] | str | None = None,
) -> Placement:
    """Allocate ``nranks`` processes and build their pairwise metrics.

    Parameters
    ----------
    nranks:
        Number of MPI processes in the job.
    allocation:
        A :class:`ProcessAllocation` or one of the paper's names
        (``"1/N"``, ``"8RR"``, ``"8G"``).
    latency_model:
        Defaults to :class:`~repro.net.latency.KComputerLatency`.
    topology_factory:
        ``f(n_nodes) -> Topology`` or a registered topology name
        (``"tofu"``, ``"flat"``); defaults to
        :meth:`TofuTopology.for_nodes` (compact-box placement, like the
        K Computer's scheduler).
    """
    if isinstance(allocation, str):
        allocation = _ALLOCATIONS.resolve(allocation)
    if latency_model is None:
        latency_model = KComputerLatency()
    if topology_factory is None:
        topology_factory = TofuTopology.for_nodes
    elif isinstance(topology_factory, str):
        topology_factory = registry_for("topology").resolve(topology_factory)

    n_nodes = allocation.nodes_needed(nranks)
    topology = topology_factory(n_nodes)
    if topology.num_nodes < n_nodes:
        raise AllocationError(
            f"topology has {topology.num_nodes} nodes, job needs {n_nodes}"
        )
    rank_nodes = allocation.rank_nodes(nranks)
    if rank_nodes.max() >= topology.num_nodes:
        raise AllocationError("allocation placed a rank outside the topology")

    # Row functions: nothing N x N is allocated here — a row is
    # computed each time a consumer asks for it.  Latency rows are
    # decoded from the model's byte codes, which ride along for the
    # engine; Euclidean rows carry their integer squares, which the
    # skewed selectors weight through one table per job.
    codes = latency_model.code_rows(topology, rank_nodes)
    latency = PairwiseMetric(
        nranks, latency_model.float_rows(*codes), name="latency", codes=codes
    )
    squares, roots = topology.euclidean_codes(rank_nodes)
    euclidean = PairwiseMetric(
        nranks,
        lambda i: np.sqrt(squares(i)),  # ``Topology.euclidean_rows``
        name="euclidean",
        codes=(squares, roots),
    )
    return Placement(
        nranks=nranks,
        rank_nodes=rank_nodes,
        topology=topology,
        latency=latency,
        euclidean=euclidean,
        allocation_name=allocation.name,
        latency_name=latency_model.name,
    )
