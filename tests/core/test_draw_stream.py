"""The draw stream is numpy's scalar stream, read from raw blocks.

:class:`repro.core.victim._DrawStream` re-implements
``Generator.random()`` and ``Generator.integers(0, n)`` over PCG64's
raw 64-bit output.  The adaptive selectors and the region draws run on
it, and the engine and the test oracle build the same selectors, so
the differential suite cannot see it drift: these properties hold it
to the ``Generator`` call by call, across block refills, Lemire
rejections and the 32-bit half-word numpy keeps between calls.

``--hypothesis-profile deep`` runs them at ten times the budget.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.victim import _RAW_BLOCK, _DrawStream

_TWO32 = 2**32

#: Bounds over the whole supported range, with the edges that take
#: their own branch (no draw at 1, no rejection at 2**32) and bounds
#: just above 2**31, where about half the draws are rejected.
_BOUNDS = st.one_of(
    st.integers(1, _TWO32),
    st.integers(1, 300),
    st.sampled_from([1, 2, 3, 2**31 - 1, 2**31 + 1, _TWO32 - 1, _TWO32]),
)

#: One scalar call: ``random()``, ``integers(0, n)`` or ``integers(n)``.
_CALLS = st.lists(
    st.one_of(
        st.just(("random", None)),
        st.tuples(st.sampled_from(["integers(0, n)", "integers(n)"]), _BOUNDS),
    ),
    max_size=3 * _RAW_BLOCK,
)


def _expected(rng: np.random.Generator, call: str, n: int | None):
    if call == "random":
        return rng.random()
    if call == "integers(0, n)":
        return int(rng.integers(0, n))
    return int(rng.integers(n))


def _actual(stream: _DrawStream, call: str, n: int | None):
    return stream.random() if call == "random" else stream.integers(n)


@settings(deadline=None)  # the profile sets the budget: 100, deep 1000
@given(
    seed=st.integers(0, 2**64 - 1),
    before=st.lists(_BOUNDS, max_size=3),
    calls=_CALLS,
)
def test_stream_equals_the_generators_scalar_calls(seed, before, calls):
    """``before`` is drawn on the generator ahead of the stream: an odd
    number of 32-bit draws leaves a half-word in the generator's state,
    which the stream must hand out first."""
    reference = np.random.default_rng(seed)
    mine = np.random.default_rng(seed)
    for n in before:
        reference.integers(0, n)
        mine.integers(0, n)
    stream = _DrawStream(mine)
    for call, n in calls:
        got = _actual(stream, call, n)
        assert type(got) is (float if call == "random" else int)
        assert got == _expected(reference, call, n), (call, n)


def test_a_kept_half_word_comes_first():
    reference = np.random.default_rng(5)
    mine = np.random.default_rng(5)
    reference.integers(0, 10)
    mine.integers(0, 10)
    assert mine.bit_generator.state["has_uint32"] == 1
    stream = _DrawStream(mine)
    # A random() between two 32-bit draws takes a fresh word and
    # leaves the half-word where it is.
    assert stream.random() == reference.random()
    assert stream.integers(1000) == reference.integers(0, 1000)
    assert stream.integers(1000) == reference.integers(0, 1000)


@pytest.mark.parametrize("n", [2, 7, 2**31 + 1, _TWO32])
def test_long_runs_cross_many_refills(n):
    reference = np.random.default_rng(11)
    stream = _DrawStream(np.random.default_rng(11))
    k = 20 * _RAW_BLOCK
    assert [stream.integers(n) for _ in range(k)] == [
        int(reference.integers(0, n)) for _ in range(k)
    ]
    assert [stream.random() for _ in range(k)] == [
        reference.random() for _ in range(k)
    ]


def test_only_pcg64_is_read():
    with pytest.raises(TypeError, match="PCG64"):
        _DrawStream(np.random.Generator(np.random.MT19937(0)))
