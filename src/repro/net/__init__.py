"""Network substrate: topology, latency and process placement models.

The paper's central observation is that steal requests between
*physically distant* nodes cost more than between close ones, and that
victim selection should account for it.  This subpackage provides what
the K Computer provided the authors:

* :mod:`repro.net.coords` — mixed-radix coordinate math with torus
  wrap-around;
* :mod:`repro.net.topology` — node topologies, chiefly
  :class:`~repro.net.topology.TofuTopology`, a software model of the
  Tofu 6-D mesh/torus (4-node blades, 2x3x2 cubes of 3 blades, cubes in
  a 3-D torus);
* :mod:`repro.net.latency` — latency models turning topological
  distance into seconds;
* :mod:`repro.net.allocation` — rank-to-node placements (the paper's
  1/N, 8RR and 8G schemes) and the :class:`~repro.net.allocation.Placement`
  object exposing per-rank-pair distances and latencies;
* :mod:`repro.net.pairwise` — :class:`~repro.net.pairwise.PairwiseMetric`,
  those pairwise quantities as row functions (O(N) memory at paper
  scale, rows computed when read and never stored);
* :mod:`repro.net.contention` — optional per-node NIC serialisation.
"""

from repro.net.coords import CoordSpace
from repro.net.pairwise import PairwiseMetric
from repro.net.topology import (
    Topology,
    TofuTopology,
    Torus3D,
    FlatTopology,
)
from repro.net.latency import (
    LatencyModel,
    UniformLatency,
    HopLatency,
    HierarchicalLatency,
    KComputerLatency,
)
from repro.net.allocation import (
    ProcessAllocation,
    OnePerNode,
    RoundRobinPacked,
    GroupedPacked,
    RandomAllocation,
    DilatedAllocation,
    Placement,
    build_placement,
    allocation_by_name,
)
from repro.net.contention import NicContention

__all__ = [
    "CoordSpace",
    "PairwiseMetric",
    "Topology",
    "TofuTopology",
    "Torus3D",
    "FlatTopology",
    "LatencyModel",
    "UniformLatency",
    "HopLatency",
    "HierarchicalLatency",
    "KComputerLatency",
    "ProcessAllocation",
    "OnePerNode",
    "RoundRobinPacked",
    "GroupedPacked",
    "RandomAllocation",
    "DilatedAllocation",
    "Placement",
    "build_placement",
    "allocation_by_name",
    "NicContention",
]
