"""``VictimSelector.draws(k)`` is the next ``k`` calls of ``next_victim()``.

The quiescent tail's walk (``Cluster._walk``) takes a thief's victims
in blocks from ``draws``; the block selectors slice their held draws
and the ring does arithmetic, so each is held here to the scalar calls
it stands for: the values, and the state it leaves for the calls after
it.  ``k`` crosses the 512-draw block refill, and the ring walks past
the caller's own rank, at 3 ranks and from every starting point.

``--hypothesis-profile deep`` runs them at ten times the budget.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import registry
from repro.core.victim import _DRAW_BLOCK
from repro.net.allocation import build_placement

#: The walk's selectors: every one that takes no feedback.
SELECTORS = ["reference", "rand", "tofu", "skew[2]", "latskew[1]", "hier[0.9]"]

_PLACEMENTS: dict[int, object] = {}


def _make(name: str, rank: int, nranks: int, seed: int):
    if nranks not in _PLACEMENTS:
        _PLACEMENTS[nranks] = build_placement(nranks, "1/N")
    return registry.resolve("selector", name).make(
        rank, nranks, _PLACEMENTS[nranks], seed=seed
    )


@settings(deadline=None)
@given(
    name=st.sampled_from(SELECTORS),
    nranks=st.sampled_from([3, 4, 9, 40]),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    before=st.integers(0, _DRAW_BLOCK + 3),
    ks=st.lists(st.integers(0, 2 * _DRAW_BLOCK + 5), min_size=1, max_size=3),
)
def test_draws_are_the_next_calls(name, nranks, data, seed, before, ks):
    rank = data.draw(st.integers(0, nranks - 1), label="rank")
    scalar = _make(name, rank, nranks, seed)
    block = _make(name, rank, nranks, seed)
    for _ in range(before):
        assert block.next_victim() == scalar.next_victim()
    for k in ks:
        got = block.draws(k)
        assert isinstance(got, np.ndarray) and got.shape == (k,)
        assert got.tolist() == [scalar.next_victim() for _ in range(k)]
    # The state each leaves is the same.
    assert [block.next_victim() for _ in range(5)] == [
        scalar.next_victim() for _ in range(5)
    ]


@pytest.mark.parametrize("nranks", [3, 4])
def test_the_ring_wraps_past_the_callers_rank(nranks):
    for rank in range(nranks):
        for before in range(2 * nranks):
            scalar = _make("reference", rank, nranks, 0)
            ring = _make("reference", rank, nranks, 0)
            for _ in range(before):
                scalar.next_victim()
                ring.next_victim()
            got = ring.draws(3 * nranks).tolist()
            assert rank not in got
            assert got == [scalar.next_victim() for _ in range(3 * nranks)]
            assert ring.next_victim() == scalar.next_victim()
