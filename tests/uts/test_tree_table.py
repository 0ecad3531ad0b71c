"""The engine's tree table is the hashed tree, node for node.

:class:`TreeTable` numbers the tree breadth-first and stores one child
offset per node.  Walking it level by level beside
:meth:`TreeGenerator.children_batch` must give every node the child
count the hash gives it, for every tree type and both RNG backends;
the whole table must be the size the sequential traversal counts and
the ledger pins.  (That the simulator's runs over the table equal the
runs over hashed states is the differential suite's job:
``tests/sim/oracle.py`` still expands by hash.)  Numbered breadth
first, a run of consecutive nodes has one run of consecutive children:
the engine expands such a pop as one ``range``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.uts.tree as tree_mod
from repro.core import registry
from repro.errors import SimulationError
from repro.uts.params import tree_by_name
from repro.uts.sequential import sequential_count
from repro.uts.tree import TreeGenerator, TreeTable

EXPECTED = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger" / "expected.json"

CASES = [
    pytest.param(tree, backend, id=f"{tree}-{backend}")
    for backend in ("splitmix64", "sha1")
    for tree in ("T3XS", "T3S", "GEO_S", "GEO_L", "HYB_S")
]


@pytest.mark.parametrize("tree, backend", CASES)
def test_breadth_first_walk_matches_children_batch(tree, backend):
    gen = TreeGenerator(tree_by_name(tree), registry.resolve("rng_backend", backend))
    table = TreeTable(gen, node_cap=10**7)
    state, depth = gen.root()
    states = np.array([state], dtype=np.uint64)
    depths = np.array([depth], dtype=np.int32)
    level = [table.root()]
    assert level == [0]
    seen = 0
    while level:
        states, depths, counts = gen.children_batch(states, depths)
        kids = table.expand(level)
        first = table._first
        assert [first[i + 1] - first[i] for i in level] == counts.tolist()
        # Breadth-first: the next level is the next block of indices.
        assert kids == list(range(seen + len(level), seen + len(level) + len(kids)))
        seen += len(level)
        level = kids
    assert seen == len(table)
    assert len(table) == sequential_count(gen.params, gen.backend).total_nodes


@pytest.mark.parametrize("tree", ["T3XS", "T3M"])
def test_size_is_the_pinned_ledger_size(tree):
    pinned = json.loads(EXPECTED.read_text(encoding="utf-8"))["tree_nodes"][tree]
    table = TreeTable(TreeGenerator(tree_by_name(tree)), node_cap=10**7)
    assert len(table) == pinned == {"T3XS": 4427, "T3M": 294183}[tree]
    assert table._first.format == "i"  # four bytes per node


def test_node_cap_raises_while_building():
    gen = TreeGenerator(tree_by_name("T3XS"))
    with pytest.raises(SimulationError, match="run exceeded node cap 10"):
        TreeTable(gen, node_cap=10)
    assert len(TreeTable(gen, node_cap=4427)) == 4427
    with pytest.raises(SimulationError):
        TreeTable(gen, node_cap=4426)


def test_quantum_children_are_parent_major_ranges():
    table = TreeTable(TreeGenerator(tree_by_name("T3XS")), node_cap=10**7)
    first = table._first
    nodes = [5, 1, 3]
    kids = table.expand(nodes)
    assert kids == [k for i in nodes for k in range(first[i], first[i + 1])]
    assert table.expand([]) == []
    assert not hasattr(table, "children_list")


def test_offsets_widen_to_int64_past_int32(monkeypatch):
    gen = TreeGenerator(tree_by_name("T3XS"))
    narrow = TreeTable(gen, node_cap=10**7)
    monkeypatch.setattr(tree_mod, "_INT32_MAX", 1000)
    wide = TreeTable(gen, node_cap=10**7)
    assert (narrow._first.format, wide._first.format) == ("i", "q")
    assert wide._first.tolist() == narrow._first.tolist()


# Every named tree whose table a unit test can build (T3H and the
# paper-scale T3XXL/T3WL are 10**7 nodes and up).
_CONTIGUITY_TREES = [
    "T3XS", "T3S", "T3M", "T3L", "T3XL", "GEO_S", "GEO_M", "GEO_L", "HYB_S",
]
_TABLES: dict[str, TreeTable] = {}


def _table(name: str) -> TreeTable:
    if name not in _TABLES:
        _TABLES[name] = TreeTable(
            TreeGenerator(tree_by_name(name)), node_cap=10**7
        )
    return _TABLES[name]


@pytest.mark.parametrize("tree", _CONTIGUITY_TREES)
@given(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=20, deadline=None)
def test_a_run_of_nodes_has_one_run_of_children(tree, where, extra):
    table = _table(tree)
    first = table._first
    lo = int(where * len(table))
    hi = min(lo + extra, len(table) - 1)
    assert table.expand(list(range(lo, hi + 1))) == list(
        range(first[lo], first[hi + 1])
    )
