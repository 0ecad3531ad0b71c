"""Unit and property tests for the chunked steal-stack."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StackError
from repro.uts.stack import Chunk, ChunkedStack


def _nodes(n: int, start: int = 0) -> tuple[list[int], list[int]]:
    return list(range(start, start + n)), [0] * n


class TestChunk:
    def test_bad_capacity(self):
        with pytest.raises(StackError):
            Chunk(0)


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
        st_ = ChunkedStack(4)
        st_.push_batch_list(*_nodes(10))
        s, _ = st_.pop_batch_list(3)
        # Top of stack = most recently pushed.
        assert sorted(s) == [7, 8, 9]
        assert st_.size == 7

    def test_pop_empty(self):
        st_ = ChunkedStack(4)
        s, d = st_.pop_batch_list(5)
        assert len(s) == 0 and len(d) == 0

    def test_pop_negative(self):
        with pytest.raises(StackError):
            ChunkedStack(4).pop_batch_list(-1)

    def test_push_empty_noop(self):
        st_ = ChunkedStack(4)
        st_.push_batch_list([], [])
        assert st_.is_empty

    def test_chunk_count(self):
        st_ = ChunkedStack(5)
        st_.push_batch_list(*_nodes(12))
        assert st_.num_chunks == 3  # 5 + 5 + 2
        assert st_.stealable_chunks == 2

    def test_invariant_holds_after_ops(self):
        st_ = ChunkedStack(5)
        st_.push_batch_list(*_nodes(23))
        st_.pop_batch_list(4)
        st_.check_invariant()
        st_.push_batch_list(*_nodes(9))
        st_.check_invariant()

    def test_accounting(self):
        st_ = ChunkedStack(5)
        st_.push_batch_list(*_nodes(12))
        st_.pop_batch_list(7)
        assert st_.total_pushed == 12
        assert st_.total_popped == 7
        assert st_.size == 5


class TestStealing:
    def test_private_chunk_never_stealable(self):
        st_ = ChunkedStack(5)
        st_.push_batch_list(*_nodes(5))  # exactly one full chunk
        assert st_.stealable_chunks == 0
        with pytest.raises(StackError):
            st_.steal_chunks(1)

    def test_steal_removes_bottom(self):
        st_ = ChunkedStack(5)
        st_.push_batch_list(*_nodes(15))  # chunks: [0-4][5-9][10-14]
        stolen = st_.steal_chunks(1)
        assert len(stolen) == 1
        assert stolen[0].states == [0, 1, 2, 3, 4]
        # Owner still pops its newest work.
        s, _ = st_.pop_batch_list(1)
        assert s == [14]

    def test_steal_too_many(self):
        st_ = ChunkedStack(5)
        st_.push_batch_list(*_nodes(15))
        with pytest.raises(StackError):
            st_.steal_chunks(3)

    def test_steal_zero_ok(self):
        st_ = ChunkedStack(5)
        st_.push_batch_list(*_nodes(15))
        assert st_.steal_chunks(0) == []

    def test_steal_negative(self):
        with pytest.raises(StackError):
            ChunkedStack(5).steal_chunks(-1)

    def test_receive_chunks(self):
        victim = ChunkedStack(5)
        victim.push_batch_list(*_nodes(15))
        thief = ChunkedStack(5)
        stolen = victim.steal_chunks(2)
        n = thief.receive_chunks(stolen)
        assert n == 10
        assert thief.size == 10
        thief.check_invariant()

    def test_receive_empty_chunk_rejected(self):
        thief = ChunkedStack(5)
        with pytest.raises(StackError):
            thief.receive_chunks([Chunk(5)])

    def test_receive_goes_below_existing(self):
        victim = ChunkedStack(5)
        victim.push_batch_list(*_nodes(15))
        thief = ChunkedStack(5)
        thief.push_batch_list(*_nodes(3, start=100))
        stolen = victim.steal_chunks(1)
        thief.receive_chunks(stolen)
        # Thief's own (newest) work still pops first.
        s, _ = thief.pop_batch_list(1)
        assert s == [102]
        thief.check_invariant()

    def test_conservation_across_steal(self):
        victim = ChunkedStack(4)
        victim.push_batch_list(*_nodes(20))
        thief = ChunkedStack(4)
        stolen = victim.steal_chunks(2)
        thief.receive_chunks(stolen)
        assert victim.size + thief.size == 20
        assert victim.total_stolen_away == 8


@st.composite
def op_sequences(draw):
    """Random push/pop/steal scripts for the conservation property."""
    n_ops = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["push", "pop", "steal"]))
        amount = draw(st.integers(min_value=1, max_value=30))
        ops.append((kind, amount))
    return ops


class TestProperties:
    @given(op_sequences(), st.integers(min_value=1, max_value=9))
    @settings(max_examples=100, deadline=None)
    def test_conservation_and_invariant(self, ops, chunk_size):
        """Nodes are never lost or duplicated; invariant always holds."""
        stack = ChunkedStack(chunk_size)
        other = ChunkedStack(chunk_size)
        counter = 0
        in_stack = 0
        in_other = 0
        for kind, amount in ops:
            if kind == "push":
                stack.push_batch_list(*_nodes(amount, start=counter))
                counter += amount
                in_stack += amount
            elif kind == "pop":
                s, _ = stack.pop_batch_list(amount)
                in_stack -= len(s)
            else:  # steal
                take = min(amount, stack.stealable_chunks)
                if take:
                    moved = stack.steal_chunks(take)
                    got = other.receive_chunks(moved)
                    in_stack -= got
                    in_other += got
            stack.check_invariant()
            other.check_invariant()
            assert stack.size == in_stack
            assert other.size == in_other

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
        ``expand_quanta``; this drives it and ``expand_quantum`` over
        the same stack content, children function and stop time and
        demands the same node stream, timestamps, counters and final
        chunk layout.
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
            npop = step.expand_quantum(n, children_fn)
            quanta_s += 1
            nodes_s += npop
            t_s += npop * per_node_time
            if step.is_empty or t_s >= t_stop:
                break

        assert (t_b, quanta_b, nodes_b) == (t_s, quanta_s, nodes_s)
        assert shim.total_popped == step.total_popped
        assert shim.total_pushed == step.total_pushed
        assert shim.size == step.size
        assert [
            (c.size, c.capacity, c.states, c.depths) for c in shim._chunks
        ] == [
            (c.size, c.capacity, c.states, c.depths) for c in step._chunks
        ]
        shim.check_invariant()

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
            stack.push_batch_list(*_nodes(n, start=base))
            pushed.extend(range(base, base + n))
            base += n
        states, _ = stack.pop_batch_list(stack.size)
        assert sorted(states) == pushed
        assert stack.is_empty
