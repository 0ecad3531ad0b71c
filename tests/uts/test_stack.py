"""Unit, property and model-based tests for the chunked steal-stack."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StackError
from repro.uts.stack import ChunkedStack


def _stack(chunk_size: int, n: int = 0, start: int = 0) -> ChunkedStack:
    s = ChunkedStack(chunk_size)
    s.nodes += range(start, start + n)
    return s


class ChunkObjectStack:
    """Reference model: the stack as a list of chunk objects.

    This is how the stack was written before its chunks became
    arithmetic: every chunk but the top one is full, a push fills the
    top chunk and opens new ones, a pop drains the top chunk before it
    touches the next one, and a steal moves whole chunk objects.
    """

    def __init__(self, chunk_size: int):
        self.chunk_size = chunk_size
        self.chunks: list[list[int]] = []

    @property
    def size(self) -> int:
        return sum(len(c) for c in self.chunks)

    @property
    def stealable_chunks(self) -> int:
        return max(0, len(self.chunks) - 1)

    def flat(self) -> list[int]:
        return [node for chunk in self.chunks for node in chunk]

    def assert_full_below_top(self) -> None:
        assert all(len(c) == self.chunk_size for c in self.chunks[:-1])
        assert not self.chunks or self.chunks[-1]

    def push(self, nodes: list[int]) -> None:
        offset = 0
        if self.chunks:
            top = self.chunks[-1]
            offset = self.chunk_size - len(top)
            top += nodes[:offset]
        while offset < len(nodes):
            self.chunks.append(nodes[offset : offset + self.chunk_size])
            offset += self.chunk_size

    def pop(self, n: int) -> list[int]:
        popped: list[int] = []
        while n > 0 and self.chunks:
            top = self.chunks[-1]
            if n >= len(top):
                n -= len(top)
                popped += top
                self.chunks.pop()
            else:
                popped += top[-n:]
                del top[-n:]
                n = 0
        return popped

    def steal_chunks(self, count: int) -> list[list[int]]:
        assert 0 <= count <= self.stealable_chunks
        stolen = self.chunks[:count]
        del self.chunks[:count]
        return stolen

    def receive_chunks(self, chunks: list[list[int]]) -> None:
        for chunk in chunks:
            assert chunk
            assert len(chunk) == self.chunk_size or not self.chunks
        self.chunks[:0] = chunks


class TestChunkedStackBasics:
    def test_empty(self):
        st_ = ChunkedStack(20)
        assert st_.is_empty
        assert st_.size == 0
        assert st_.stealable_chunks == 0

    def test_bad_chunk_size(self):
        with pytest.raises(StackError):
            ChunkedStack(0)

    def test_push_pop_lifo_batches(self):
        st_ = _stack(4, 10)
        s = st_.pop(3)
        # Top of stack = most recently pushed.
        assert sorted(s) == [7, 8, 9]
        assert st_.size == 7

    def test_pop_crossing_a_chunk_keeps_chunk_order(self):
        # Chunks [0-3][4-7][8 9]: the top chunk drains whole, in order,
        # then the newest node of the next one — not ``nodes[-3:]``.
        st_ = _stack(4, 10)
        assert st_.pop(3) == [8, 9, 7]
        assert st_.nodes == [0, 1, 2, 3, 4, 5, 6]

    def test_pop_empty(self):
        assert ChunkedStack(4).pop(5) == []

    def test_pop_negative(self):
        with pytest.raises(StackError):
            ChunkedStack(4).pop(-1)

    def test_push_empty_noop(self):
        st_ = ChunkedStack(4)
        st_.push_batch_list([], [])
        assert st_.is_empty

    def test_chunk_count(self):
        st_ = _stack(5, 12)  # 5 + 5 + 2
        assert st_.stealable_chunks == 2
        assert _stack(5, 10).stealable_chunks == 1  # 5 + 5: top is full


class TestStealing:
    def test_private_chunk_never_stealable(self):
        st_ = _stack(5, 5)  # exactly one full chunk
        assert st_.stealable_chunks == 0
        with pytest.raises(StackError):
            st_.steal_chunks(1)

    def test_steal_removes_bottom(self):
        st_ = _stack(5, 15)  # chunks: [0-4][5-9][10-14]
        assert st_.steal_chunks(1) == [0, 1, 2, 3, 4]
        # Owner still pops its newest work.
        assert st_.pop(1) == [14]

    def test_steal_too_many(self):
        with pytest.raises(StackError):
            _stack(5, 15).steal_chunks(3)

    def test_steal_zero_ok(self):
        st_ = _stack(5, 15)
        assert st_.steal_chunks(0) == []
        assert st_.size == 15

    def test_steal_negative(self):
        with pytest.raises(StackError):
            ChunkedStack(5).steal_chunks(-1)

    def test_receive_chunks(self):
        victim = _stack(5, 15)
        thief = ChunkedStack(5)
        assert thief.receive_chunks(victim.steal_chunks(2)) == 10
        assert thief.nodes == list(range(10))

    def test_receive_empty_chunk_rejected(self):
        with pytest.raises(StackError):
            ChunkedStack(5).receive_chunks([])

    def test_receive_partial_chunk_into_non_empty_stack_rejected(self):
        thief = _stack(5, 3)
        with pytest.raises(StackError, match="not whole chunks"):
            thief.receive_chunks([1, 2, 3, 4])
        assert thief.nodes == [0, 1, 2]
        # An empty stack takes any block: it becomes the top chunk.
        assert ChunkedStack(5).receive_chunks([1, 2, 3, 4]) == 4

    def test_receive_goes_below_existing(self):
        victim = _stack(5, 15)
        thief = _stack(5, 3, start=100)
        thief.receive_chunks(victim.steal_chunks(1))
        # Thief's own (newest) work still pops first.
        assert thief.pop(1) == [102]
        assert thief.nodes == [0, 1, 2, 3, 4, 100, 101]

    def test_conservation_across_steal(self):
        victim = _stack(4, 20)
        thief = ChunkedStack(4)
        assert thief.receive_chunks(victim.steal_chunks(2)) == 8
        assert victim.size + thief.size == 20


@st.composite
def op_sequences(draw, max_ops=40):
    """Random push/pop/steal scripts between two stacks."""
    n_ops = draw(st.integers(min_value=1, max_value=max_ops))
    return [
        (
            draw(st.sampled_from(["push", "pop", "steal"])),
            draw(st.integers(min_value=0, max_value=1)),
            draw(st.integers(min_value=0, max_value=30)),
        )
        for _ in range(n_ops)
    ]


class TestProperties:
    @given(op_sequences(), st.integers(min_value=1, max_value=9))
    @settings(max_examples=100, deadline=None)
    def test_conservation_and_invariant(self, ops, chunk_size):
        """Nodes are never lost or duplicated, and the stealable count
        is the chunk count (``ceil(size / C)``) minus the private one."""
        stacks = [ChunkedStack(chunk_size), ChunkedStack(chunk_size)]
        counter = held = 0
        for kind, which, amount in ops:
            stack, other = stacks[which], stacks[1 - which]
            if kind == "push":
                stack.nodes += range(counter, counter + amount)
                counter += amount
                held += amount
            elif kind == "pop":
                held -= len(stack.pop(amount))
            else:
                take = min(amount, stack.stealable_chunks)
                if take:
                    other.receive_chunks(stack.steal_chunks(take))
            for s in stacks:
                chunks = -(-s.size // chunk_size)
                assert s.stealable_chunks == max(0, chunks - 1)
            assert len(set(stacks[0].nodes + stacks[1].nodes)) == held
            assert sum(s.size for s in stacks) == held

    @given(
        st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_expand_quanta_matches_repeated_expand_quantum(
        self, sizes, chunk_size, n, budget
    ):
        """``expand_quanta`` is the per-quantum path, verbatim.

        The ledger's ``uts.stack.expand_nodes_per_s`` rung calls
        ``expand_quanta`` with split ``states``/``depths`` lists; this
        drives it and a quantum loop of ``pop`` + children + push over
        the same stack content, children function and stop time and
        demands the same node stream, timestamps and final stack.
        """

        def children_fn(states, depths):
            cs, cd = [], []
            for s, d in zip(states, depths):
                for k in range(s % 3):
                    cs.append((s * 1103515245 + k) % (2**63))
                    cd.append(d + 1)
            return cs, cd

        def build():
            stack = ChunkedStack(chunk_size)
            base = 0
            for count in sizes:
                stack.push_batch_list(
                    list(range(base, base + count)), [0] * count
                )
                base += count
            return stack

        per_node_time = 0.125
        t_stop = budget * per_node_time

        shim = build()
        t_b, quanta_b, nodes_b = shim.expand_quanta(
            n, children_fn, 0.0, t_stop, per_node_time
        )

        step = build()
        t_s = 0.0
        quanta_s = nodes_s = 0
        while True:
            # First quantum unconditional, further ones only while
            # work remains below t_stop.
            popped = step.pop(n)
            cs, cd = children_fn(
                [s for s, _ in popped], [d for _, d in popped]
            )
            step.nodes += zip(cs, cd)
            quanta_s += 1
            nodes_s += len(popped)
            t_s += len(popped) * per_node_time
            if step.is_empty or t_s >= t_stop:
                break

        assert (t_b, quanta_b, nodes_b) == (t_s, quanta_s, nodes_s)
        assert shim.nodes == step.nodes

    @given(
        st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=20),
        st.integers(min_value=1, max_value=32),
    )
    @settings(max_examples=100, deadline=None)
    def test_push_then_drain_preserves_multiset(self, sizes, chunk_size):
        stack = ChunkedStack(chunk_size)
        pushed: list[int] = []
        base = 0
        for n in sizes:
            stack.nodes += range(base, base + n)
            pushed.extend(range(base, base + n))
            base += n
        assert sorted(stack.pop(stack.size)) == pushed
        assert stack.is_empty


class TestAgainstChunkObjectModel:
    @given(op_sequences(max_ops=60), st.integers(min_value=1, max_value=25))
    @settings(max_examples=300, deadline=None)
    def test_random_operations_match_the_model(self, ops, chunk_size):
        """Push, pop, steal and receive between two stacks, each beside
        its chunk-object model: every pop and steal returns the model's
        nodes in the model's order, and the flat list is always the
        model's chunks laid end to end."""
        stacks = [ChunkedStack(chunk_size), ChunkedStack(chunk_size)]
        models = [ChunkObjectStack(chunk_size), ChunkObjectStack(chunk_size)]
        counter = 0
        for kind, which, amount in ops:
            stack, model = stacks[which], models[which]
            if kind == "push":
                fresh = list(range(counter, counter + amount))
                counter += amount
                stack.nodes += fresh
                model.push(fresh)
            elif kind == "pop":
                top = (stack.size - 1) % chunk_size if stack.nodes else -1
                before = list(stack.nodes)
                popped = stack.pop(amount)
                assert popped == model.pop(amount)
                if 0 < amount <= top:
                    # The worker's inline quantum: a slice of the top chunk.
                    assert popped == before[-amount:]
            else:
                take = min(amount, stack.stealable_chunks)
                assert stack.stealable_chunks == model.stealable_chunks
                if take:
                    stolen = stack.steal_chunks(take)
                    chunks = model.steal_chunks(take)
                    assert stolen == [n for chunk in chunks for n in chunk]
                    got = stacks[1 - which].receive_chunks(stolen)
                    models[1 - which].receive_chunks(chunks)
                    assert got == len(stolen) == take * chunk_size
            for s, m in zip(stacks, models):
                m.assert_full_below_top()
                assert s.nodes == m.flat()
                assert s.size == m.size
                assert s.stealable_chunks == m.stealable_chunks
