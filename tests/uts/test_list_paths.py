"""Bit-identity of the scalar list path against the array path.

The simulator's stack is one flat node list and the engine expands
table indices (``tests/uts/test_tree_table.py``); the test oracle
expands the same stack by hash, through ``expand`` — the scalar
reference ``children`` looped over a quantum's ``(state, depth)``
nodes.  The engine-vs-oracle differential therefore rests on the
scalar path producing *exactly* what ``children_batch`` — which builds
the table — produces (same values, same order) for every tree type and
backend, and on the worker's inline quantum leaving the stack of its
unfused parts.  These tests drive both side by side and require
equality at every step.
"""

import numpy as np
import pytest

from repro.core import registry
from repro.core.steal_policy import StealOne
from repro.protocol.core import Worker
from repro.uts.params import tree_by_name
from repro.uts.stack import ChunkedStack
from repro.uts.tree import TreeGenerator
from tests.sim.fakes import FakeTransport


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
        gen = TreeGenerator(tree_by_name(tree), registry.resolve("rng_backend", backend))
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
        assert gen.expand(list(zip(states, depths))) == list(zip(cs_l, cd_l))

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

        def run(use_list):
            stack = ChunkedStack(20)
            stack.nodes.append(gen.root())
            visited = []
            while stack.nodes:
                popped = stack.pop(2)
                if use_list:
                    kids = gen.expand(popped)
                else:
                    cs_a, cd_a, _ = gen.children_batch(
                        np.array([s for s, _ in popped], dtype=np.uint64),
                        np.array([d for _, d in popped], dtype=np.int32),
                    )
                    kids = list(zip(cs_a.tolist(), cd_a.tolist()))
                stack.nodes += kids
                visited += popped
            return visited

        assert run(use_list=True) == run(use_list=False)


class TestExpandQuantumFusion:
    @pytest.mark.parametrize("quantum", [1, 2, 5, 20, 50])
    def test_matches_unfused_sequence(self, quantum):
        """``Worker.on_exec`` pops a quantum inline — a slice when the
        top chunk holds more than the quantum, ``ChunkedStack.pop``
        otherwise — and pushes its children; after every poll its stack
        is the stack of ``pop`` + ``expand`` + push."""
        gen = TreeGenerator(tree_by_name("T3XS"))
        worker = Worker(
            rank=0, nranks=1, generator=gen, selector=None, policy=StealOne(),
            transport=FakeTransport(), chunk_size=20, poll_interval=quantum,
            per_node_time=1e-6, steal_service_time=1e-6,
        )
        worker.start(0.0)
        unfused = ChunkedStack(20)
        unfused.nodes.append(gen.root())
        processed = 0
        while unfused.nodes:
            worker.on_exec(0.0)
            popped = unfused.pop(quantum)
            unfused.nodes += gen.expand(popped)
            processed += len(popped)
            assert worker.stack.nodes == unfused.nodes
            assert worker.nodes_processed == processed
        assert processed == 4427


class TestSha1SpawnArray:
    def test_matches_scalar_spawn(self):
        be = registry.resolve("rng_backend", "sha1")
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
        be = registry.resolve("rng_backend", "sha1")
        states = np.arange(6, dtype=np.uint64).reshape(2, 3)
        indices = np.arange(6, dtype=np.uint64).reshape(2, 3)
        out = be.spawn_array(states, indices)
        assert out.shape == (2, 3)
        flat = be.spawn_array(states.ravel(), indices.ravel())
        assert out.ravel().tolist() == flat.tolist()

