"""Single-process UTS traversal.

The sequential count serves three purposes:

* it is the *ground truth* for the distributed runs — the simulator's
  conservation tests assert that the sum of nodes processed across all
  ranks equals the sequential count for the same tree;
* it regenerates Table I (tree sizes and depths);
* its node count is the single-process baseline used for
  speedup/efficiency, the same extrapolation the paper applies to
  T3WL ("all single MPI process executions, for the same type of
  generated trees, should have the same speed").

It reads the counts off :class:`~repro.uts.tree.TreeTable`, the same
breadth-first walk the simulator expands, so there is one walk of a
tree to trust.  It builds its own table, never the one
:func:`~repro.uts.tree.tree_table` holds for the simulator: it is the
independent count a run's node total is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.uts.params import TreeParams
from repro.uts.rng import RngBackend
from repro.uts.tree import TreeGenerator, TreeTable

__all__ = ["SequentialResult", "sequential_count"]

#: Default runaway guard: abort a traversal past this many nodes.
DEFAULT_NODE_CAP = 50_000_000


@dataclass(frozen=True)
class SequentialResult:
    """Outcome of a sequential traversal."""

    total_nodes: int
    max_depth: int
    leaves: int

    @property
    def interior(self) -> int:
        return self.total_nodes - self.leaves


def sequential_count(
    params: TreeParams,
    backend: RngBackend | None = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> SequentialResult:
    """Walk the whole tree on one process and count it.

    Parameters
    ----------
    params:
        Tree to traverse.
    backend:
        RNG backend (defaults to SplitMix64).
    node_cap:
        Hard limit guarding against a mis-parameterised (near-critical)
        tree running forever; exceeded -> :class:`~repro.errors.SimulationError`.
    """
    table = TreeTable(TreeGenerator(params, backend), node_cap)
    return SequentialResult(
        total_nodes=len(table), max_depth=table.depth, leaves=table.leaves
    )
