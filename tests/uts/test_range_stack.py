"""``RangeStack`` is ``ChunkedStack`` over tree-table indices.

The engine holds a :class:`~repro.uts.tree.TreeTable` run's stacks as
index ranges, and the test oracle holds its hashed nodes in a
:class:`ChunkedStack`; the drawn engine == oracle property compares the
two only through whole runs.  Here the two stacks run side by side over
drawn scripts — quanta of every size the engine meets, steals of every
stealable count (and one past it), receives of whole-chunk blocks and
of blocks that are not — and after every operation the node sequence,
the count, the stealable chunks, what was popped, what was stolen and
every :class:`StackError` must be the same.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StackError
from repro.uts.params import GEO_S, HYB_S, T3XS
from repro.uts.stack import ChunkedStack, RangeStack
from repro.uts.tree import TreeGenerator, TreeTable

_tables: dict = {}


def _table(params) -> TreeTable:
    """One table per tree for the module (not the process-wide one)."""
    if params not in _tables:
        _tables[params] = TreeTable(TreeGenerator(params), 10**6)
    return _tables[params]


def _pair(table: TreeTable, chunk_size: int) -> tuple[RangeStack, ChunkedStack]:
    return RangeStack(chunk_size, table), ChunkedStack(chunk_size, table.expand)


def _outcome(call):
    """``call()``'s result, or the message of the StackError it raised."""
    try:
        return call()
    except StackError as exc:
        return f"StackError: {exc}"


def _assert_same(ranges: RangeStack, chunked: ChunkedStack) -> None:
    assert ranges.nodes == chunked.nodes
    assert ranges.count == ranges.size == len(ranges) == chunked.size
    assert ranges.is_empty == chunked.is_empty
    assert ranges.stealable_chunks == chunked.stealable_chunks
    segs = ranges.segs
    # No empty range is ever held.
    assert all(segs[j] < segs[j + 1] for j in range(0, len(segs), 2))


_QUANTA = st.sampled_from([*range(1, 13), 100])
_OPS = st.sampled_from(["quantum", "quantum", "quantum", "pop", "steal", "receive"])


@given(
    st.sampled_from([T3XS, GEO_S, HYB_S]),
    st.integers(min_value=1, max_value=30),
    st.data(),
)
@settings(max_examples=settings.default.max_examples, deadline=None)
def test_range_stack_matches_chunked_stack(tree, chunk_size, data):
    table = _table(tree)
    pairs = [_pair(table, chunk_size), _pair(table, chunk_size)]
    for ranges, chunked in pairs[:1]:
        assert ranges.receive_chunks([0]) == chunked.receive_chunks([0]) == 1
    for _ in range(data.draw(st.integers(min_value=1, max_value=80))):
        op = data.draw(_OPS)
        which = data.draw(st.integers(min_value=0, max_value=1))
        (ranges, chunked), (other_r, other_c) = pairs[which], pairs[1 - which]
        if op == "quantum":
            n = data.draw(_QUANTA)
            assert ranges.quantum(n) == chunked.quantum(n)
        elif op == "pop":
            n = data.draw(_QUANTA)
            assert ranges.pop(n) == chunked.pop(n)
        elif op == "steal":
            # Every stealable count, and one past it.
            take = data.draw(
                st.integers(min_value=0, max_value=chunked.stealable_chunks + 1)
            )
            body = _outcome(lambda: ranges.steal_chunks(take))
            assert body == _outcome(lambda: chunked.steal_chunks(take))
            if isinstance(body, list) and body:
                # The thief takes the block below its own work.
                got = other_r.receive_chunks(body)
                assert got == other_c.receive_chunks(list(body)) == len(body)
        else:
            # A block of table indices, runs and gaps, whole chunks or
            # not: a partial block into a non-empty stack raises.
            size = data.draw(st.integers(min_value=0, max_value=2 * chunk_size))
            start = data.draw(st.integers(min_value=0, max_value=len(table) - 1))
            step = data.draw(st.sampled_from([1, 1, 2]))
            block = [
                i % len(table) for i in range(start, start + step * size, step)
            ]
            got = _outcome(lambda: ranges.receive_chunks(block))
            assert got == _outcome(lambda: chunked.receive_chunks(list(block)))
        for r, c in pairs:
            _assert_same(r, c)


class TestRangeStackBasics:
    def test_bad_chunk_size(self):
        with pytest.raises(StackError):
            RangeStack(0, _table(T3XS))

    def test_ranges_and_chunks(self):
        # Table indices 10..14 and 40..45, chunks of 4: [10 11 12 13]
        # [14 40 41 42] [43 44 45], so ranges straddle chunks.
        stack = RangeStack(4, _table(T3XS))
        stack.receive_chunks([*range(10, 15), *range(40, 46)])
        assert stack.segs == [10, 15, 40, 46]
        assert stack.stealable_chunks == 2
        # A pop of 5 drains the top chunk, then takes the newest two of
        # the next one, in stack order.
        assert stack.pop(5) == [43, 44, 45, 41, 42]
        assert stack.segs == [10, 15, 40, 41]
        assert stack.steal_chunks(1) == [10, 11, 12, 13]
        assert stack.segs == [14, 15, 40, 41]

    def test_a_quantum_in_one_range_pushes_one_range(self):
        table = _table(T3XS)
        first = table._first
        stack = RangeStack(20, table)
        stack.receive_chunks([0])
        assert stack.quantum(2) == 1
        assert stack.segs == [1, first[1]]
        lo, hi = 1, first[1]
        # Children of the top two nodes of one range: one range.
        assert stack.quantum(2) == 2
        kids = [first[hi - 2], first[hi]]
        assert stack.segs == [lo, hi - 2] + (kids if kids[0] < kids[1] else [])

    def test_empty(self):
        stack = RangeStack(5, _table(T3XS))
        assert stack.is_empty and stack.stealable_chunks == 0
        assert stack.quantum(3) == 0 and stack.pop(3) == []
        with pytest.raises(StackError, match="empty block"):
            stack.receive_chunks([])
        with pytest.raises(StackError):
            stack.steal_chunks(-1)
        with pytest.raises(StackError):
            stack.pop(-1)
