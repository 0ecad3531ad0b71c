"""Table I: UTS input tree parameters and realised sizes.

The paper's trees (T3XXL, T3WL) are reported with their published
parameters and sizes; the scaled stand-ins are traversed and their
realised size/depth measured — these are the rows every other
experiment builds on.
"""

from __future__ import annotations

from repro.bench.report import format_table, save_artifact
from repro.uts.params import T3H, T3L, T3M, T3S, T3WL, T3XS, T3XXL
from repro.uts.sequential import sequential_count
from repro.uts.tree import TreeGenerator, TreeTable
from tests.uts.depth_theory import depth_quantiles

PAPER_TREES = (T3XXL, T3WL)
SCALED_TREES = (T3XS, T3S, T3M, T3L)


def _rows():
    rows = []
    for t in PAPER_TREES:
        rows.append(
            [t.name, t.tree_type, t.root_seed, t.b0, t.m, t.q,
             int(t.expected_size), "(paper)", "-"]
        )
    for t in SCALED_TREES:
        seq = sequential_count(t)
        rows.append(
            [t.name, t.tree_type, t.root_seed, t.b0, t.m, t.q,
             seq.total_nodes, "(measured)", seq.max_depth]
        )
    return rows


def test_table1_tree_parameters(once):
    rows = once(_rows)
    print(
        format_table(
            ["Name", "Type", "r", "b0", "m", "q", "Size", "src", "Depth"],
            rows,
        )
    )
    save_artifact(
        "table1",
        {
            "headers": ["name", "type", "r", "b0", "m", "q", "size", "src", "depth"],
            "rows": rows,
        },
    )
    # Paper rows are verbatim Table I.
    assert rows[0][:7] == ["T3XXL", "binomial", 316, 2000, 2, 0.499995, 2793220501]
    assert rows[1][:7] == ["T3WL", "binomial", 559, 2000, 2, 0.4999995, 157063495159]
    # Scaled trees are deterministic: sizes and depths are pinned.
    measured = {r[0]: r[6] for r in rows[2:]}
    depth = {r[0]: r[8] for r in rows[2:]}
    assert (measured["T3XS"], depth["T3XS"]) == (4427, 54)
    assert (measured["T3M"], depth["T3M"]) == (294183, 356)
    # All scaled trees realised within 5x of analytic expectation.
    for t in SCALED_TREES:
        assert measured[t.name] > t.analytic_expected_size / 5
        assert measured[t.name] < t.analytic_expected_size * 5


def test_t3h_depth_inside_theory_band():
    """T3H (25.6 M nodes, too big for tier 1): its depth, the critical
    path of the Fig 3/4 4096-rank rung, lies inside the exact theory's
    0.5%-99.5% band (``tests/uts/depth_theory.py``)."""
    lo, hi = depth_quantiles(T3H, (0.005, 0.995))
    depth = TreeTable(TreeGenerator(T3H), node_cap=50_000_000).depth
    assert (lo, hi) == (2119, 22088)
    assert lo <= depth <= hi, depth
