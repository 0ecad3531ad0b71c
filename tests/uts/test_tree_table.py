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

import gc
import json
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.uts.tree as tree_mod
from repro.core import registry
from repro.errors import SimulationError
from repro.core.config import WorkStealingConfig
from repro.sim.cluster import Cluster
from repro.uts.params import T3S, T3XS, tree_by_name
from repro.uts.rng import Sha1Backend, SplitMix64Backend
from repro.uts.sequential import sequential_count
from repro.uts.tree import TreeGenerator, TreeTable, tree_table

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


@pytest.mark.parametrize("tree", _CONTIGUITY_TREES)
@given(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=20, deadline=None)
def test_a_run_of_nodes_has_one_run_of_children(tree, where, extra):
    table = tree_table(tree_by_name(tree), None, 10**7)
    first = table._first
    lo = int(where * len(table))
    hi = min(lo + extra, len(table) - 1)
    assert table.expand(list(range(lo, hi + 1))) == list(
        range(first[lo], first[hi + 1])
    )


def test_offsets_are_read_only():
    table = TreeTable(TreeGenerator(tree_by_name("T3XS")), node_cap=10**7)
    with pytest.raises(TypeError):
        table._first[1] = 0
    assert table.expand([0]) == list(range(1, 1 + T3XS.b0))


@pytest.fixture
def held(monkeypatch):
    """An empty per-process table memo, restored after the test."""
    monkeypatch.setattr(tree_mod, "_held", {})


class TestMemo:
    """:func:`tree_table` holds one table per process, keyed on the
    tree and the backend; the node cap bounds it but is not its key."""

    def test_one_tree_and_backend_is_one_table(self, held):
        table = tree_table(T3XS, None, 10**7)
        assert tree_table(T3XS, SplitMix64Backend(), 4427) is table
        # Every run of the tree reads that table.
        clusters = [
            Cluster(WorkStealingConfig(tree=T3XS, nranks=4, seed=seed))
            for seed in (0, 1)
        ]
        assert all(c._first is table._first for c in clusters)

    @pytest.mark.parametrize(
        "params, backend",
        [(T3S, SplitMix64Backend()), (T3XS, Sha1Backend())],
        ids=["other-tree", "other-backend"],
    )
    def test_a_new_key_rebuilds_and_drops_the_held_table(
        self, held, params, backend
    ):
        ref = weakref.ref(tree_table(T3XS, None, 10**7))
        table = tree_table(params, backend, 10**7)
        gc.collect()
        assert ref() is None
        assert list(tree_mod._held.values()) == [table]
        assert len(table) == sequential_count(params, backend).total_nodes

    def test_a_held_table_past_the_cap_raises_the_builds_message(self, held):
        table = tree_table(T3XS, None, 10**7)
        with pytest.raises(SimulationError) as built:
            TreeTable(TreeGenerator(T3XS), node_cap=4426)
        with pytest.raises(SimulationError) as reused:
            tree_table(T3XS, None, 4426)
        assert str(reused.value) == str(built.value) == "run exceeded node cap 4426"
        assert tree_table(T3XS, None, 4427) is table

    def test_sequential_count_neither_reads_nor_fills_it(self, held):
        assert sequential_count(T3XS).total_nodes == 4427
        assert tree_mod._held == {}
        # A wrong table held under T3XS's key is never read.
        wrong = tree_table(T3S, None, 10**7)
        key = (T3XS, SplitMix64Backend, "splitmix64")
        tree_mod._held = {key: wrong}
        assert sequential_count(T3XS).total_nodes == 4427
        assert tree_mod._held == {key: wrong}

    def test_threads_that_race_get_their_own_trees_table(self, held):
        # A service with an injected runner runs jobs on threads.
        keys = [(T3XS, SplitMix64Backend()), (T3XS, Sha1Backend())]
        sizes = [sequential_count(*k).total_nodes for k in keys]
        wrong: list = []

        def work(offset: int) -> None:
            for i in range(12):
                params, backend = keys[(i + offset) % 2]
                try:
                    size = len(tree_table(params, backend, 10**7))
                except Exception as exc:  # noqa: BLE001 - reported below
                    size = exc
                if size != sizes[(i + offset) % 2]:
                    wrong.append((offset, i, size))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == [] and len(tree_mod._held) <= len(threads)
