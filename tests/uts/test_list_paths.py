"""Bit-identity of the scalar list path against the array path.

The simulator's stack runs on plain Python lists (``pop_batch_list`` /
``push_batch_list`` / ``expand_quantum``) and expands table indices
(``tests/uts/test_tree_table.py``); the test oracle expands the same
stack by hash, through ``children_list`` — the scalar reference
``children`` looped over a quantum's nodes.  The engine-vs-oracle
differential therefore rests on ``children_list`` producing *exactly*
what ``children_batch`` — the table's builder — produces (same values,
same order) for every tree type and backend, and on the fused quantum
leaving the stack layout of its unfused parts.  These tests drive both
side by side and require equality at every step.
"""

import numpy as np
import pytest

from repro.uts.params import tree_by_name
from repro.uts.rng import backend_by_name
from repro.uts.stack import ChunkedStack
from repro.uts.tree import TreeGenerator


def _layout(stack: ChunkedStack) -> list[tuple[list[int], list[int]]]:
    return [(list(c.states), list(c.depths)) for c in stack._chunks]


class TestStackListVsArray:
    def test_pop_zero_and_pop_all(self):
        s = ChunkedStack(4)
        s.push_batch_list([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
        states, depths = s.pop_batch_list(0)
        assert states == [] and depths == []
        assert s.size == 5
        states, _ = s.pop_batch_list(99)
        assert len(states) == 5
        assert s.is_empty


class TestChildrenListVsBatch:
    @pytest.mark.parametrize(
        "tree, backend, first_depth",
        [
            pytest.param(
                tree, backend, 1,
                id=tree if backend == "splitmix64" else f"{tree}-{backend}",
            )
            for backend in ("splitmix64", "sha1")
            for tree in ("T3XS", "T3S", "GEO_S", "GEO_L", "HYB_S")
        ]
        + [pytest.param("GEO_S", "splitmix64", 0, id="GEO_S-depth0")],
    )
    def test_interior_nodes_identical(self, tree, backend, first_depth):
        gen = TreeGenerator(tree_by_name(tree), backend_by_name(backend))
        root_state, _ = gen.root()
        # A spread of states: walk a few levels so depths vary.
        states = [root_state]
        depths = [first_depth]
        for i in range(60):
            states.append(gen.backend.spawn(states[i], i % 7))
            depths.append(1 + (i % 5))
        cs_l, cd_l = gen.children_list(states, depths)
        cs_b, cd_b, _ = gen.children_batch(
            np.array(states, dtype=np.uint64),
            np.array(depths, dtype=np.int32),
        )
        assert cs_l == cs_b.tolist()
        assert cd_l == cd_b.tolist()

    def test_root_matches_scalar_children(self):
        gen = TreeGenerator(tree_by_name("T3XS"))
        state, depth = gen.root()
        cs_l, cd_l = gen.children_list([state], [depth])
        scalar_children, child_depth = gen.children(state, depth)
        assert cs_l == scalar_children
        assert cd_l == [child_depth] * len(scalar_children)
        assert len(cs_l) == gen.params.b0

    def test_full_tree_traversal_identical(self):
        gen = TreeGenerator(tree_by_name("T3XS"))
        root_state, root_depth = gen.root()

        def run(use_list):
            stack = ChunkedStack(20)
            stack.push_batch_list([root_state], [root_depth])
            visited = []
            while stack._chunks:
                s, d = stack.pop_batch_list(2)
                if use_list:
                    cs, cd = gen.children_list(s, d)
                else:
                    cs_a, cd_a, _ = gen.children_batch(
                        np.array(s, dtype=np.uint64),
                        np.array(d, dtype=np.int32),
                    )
                    cs, cd = cs_a.tolist(), cd_a.tolist()
                if cs:
                    stack.push_batch_list(cs, cd)
                visited.extend(zip(s, d))
            return visited

        assert run(use_list=True) == run(use_list=False)


class TestExpandQuantumFusion:
    @pytest.mark.parametrize("quantum", [1, 2, 5, 20, 50])
    def test_matches_unfused_sequence(self, quantum):
        gen = TreeGenerator(tree_by_name("T3XS"))
        root_state, root_depth = gen.root()

        fused = ChunkedStack(20)
        unfused = ChunkedStack(20)
        fused.push_batch_list([root_state], [root_depth])
        unfused.push_batch_list([root_state], [root_depth])

        steps = 0
        while fused._chunks and steps < 500:
            npop_f = fused.expand_quantum(quantum, gen.children_list)
            s, d = unfused.pop_batch_list(quantum)
            cs, cd = gen.children_list(s, d)
            if cs:
                unfused.push_batch_list(cs, cd)
            assert npop_f == len(s)
            assert _layout(fused) == _layout(unfused)
            assert fused.total_pushed == unfused.total_pushed
            assert fused.total_popped == unfused.total_popped
            steps += 1
        assert fused.is_empty == unfused.is_empty

    def test_empty_stack_is_noop(self):
        s = ChunkedStack(4)
        gen = TreeGenerator(tree_by_name("T3XS"))
        assert s.expand_quantum(5, gen.children_list) == 0
        assert s.total_popped == 0


class TestSha1SpawnArray:
    def test_matches_scalar_spawn(self):
        be = backend_by_name("sha1")
        rng = np.random.default_rng(0)
        states = rng.integers(0, 2**63, size=40, dtype=np.uint64)
        indices = rng.integers(0, 100, size=40, dtype=np.uint64)
        vec = be.spawn_array(states, indices)
        scalar = [
            be.spawn(int(s), int(i)) for s, i in zip(states, indices)
        ]
        assert vec.tolist() == scalar
        assert vec.dtype == np.uint64

    def test_2d_shape_preserved(self):
        be = backend_by_name("sha1")
        states = np.arange(6, dtype=np.uint64).reshape(2, 3)
        indices = np.arange(6, dtype=np.uint64).reshape(2, 3)
        out = be.spawn_array(states, indices)
        assert out.shape == (2, 3)
        flat = be.spawn_array(states.ravel(), indices.ravel())
        assert out.ravel().tolist() == flat.tolist()

