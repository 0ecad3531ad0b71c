"""Hypothesis properties of the selector registry.

The invariant sweep (``test_selector_invariants.py``) drives fixed
victim/notify cycles; this module lets hypothesis choose the operation
sequences, which is what actually exercises *adaptive* state: arbitrary
interleavings of draws and success/failure feedback — including
feedback about victims the selector never drew, as lifeline pushes
produce — must keep every invariant intact.

Properties:

* ``next_victim()`` is never the caller and always in ``[0, nranks)``;
* the victim stream is a deterministic function of ``(seed, rank)``
  and the operation sequence (two independently-built selectors fed
  the same ops agree draw for draw);
* adaptive sampling weights stay finite, non-negative, self-free and
  normalized after any notify sequence.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.core import registry
from repro.net.allocation import build_placement
from repro.select.adaptive import AdaptiveVictimSelector

ALL_SELECTORS = [
    "reference",
    "rand",
    "tofu",
    "hierarchical",
    "lastvictim",
    "skew[2]",
    "hier[0.75]",
    "latskew[1.5]",
    "adapt-eps[0.1]",
    "adapt-sr[0.9]",
    "adapt-backoff[2]",
]
ADAPTIVE_SELECTORS = ["adapt-eps[0.1]", "adapt-sr[0.9]", "adapt-backoff[2]"]

_PLACEMENTS: dict[int, object] = {}


def _placement(nranks: int):
    if nranks not in _PLACEMENTS:
        _PLACEMENTS[nranks] = build_placement(
            nranks, registry.resolve("allocation", "1/N")
        )
    return _PLACEMENTS[nranks]


def _make(name: str, rank: int, nranks: int, seed: int):
    return registry.resolve("selector", name).make(
        rank, nranks, _placement(nranks), seed=seed
    )


#: One op per step: draw a victim, or notify about some rank.  Notify
#: targets are drawn over a *superset* of the rank range on purpose —
#: the selector contract is to tolerate (ignore) out-of-range and
#: self victims rather than corrupt its state.
def _ops(nranks: int):
    return st.lists(
        st.one_of(
            st.just("draw"),
            st.tuples(
                st.integers(min_value=-1, max_value=nranks),
                st.booleans(),
            ),
        ),
        max_size=60,
    )


@pytest.mark.parametrize("name", ALL_SELECTORS)
class TestEverySelectorProperties:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_valid_victims_and_determinism(self, name, data):
        nranks = data.draw(st.sampled_from([2, 5, 16]), label="nranks")
        seed = data.draw(st.integers(min_value=0, max_value=2**31), label="seed")
        rank = data.draw(
            st.integers(min_value=0, max_value=nranks - 1), label="rank"
        )
        ops = data.draw(_ops(nranks), label="ops")
        a = _make(name, rank, nranks, seed)
        b = _make(name, rank, nranks, seed)  # twin: pins determinism
        for op in ops:
            if op == "draw":
                va, vb = a.next_victim(), b.next_victim()
                assert va == vb, f"{name}: twin selectors diverged"
                assert 0 <= va < nranks
                assert va != rank
            else:
                victim, success = op
                a.notify(victim, success)
                b.notify(victim, success)


@pytest.mark.parametrize("name", ADAPTIVE_SELECTORS)
class TestAdaptiveWeights:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_weights_stay_normalized(self, name, data):
        nranks = data.draw(st.sampled_from([2, 5, 16]), label="nranks")
        rank = data.draw(
            st.integers(min_value=0, max_value=nranks - 1), label="rank"
        )
        ops = data.draw(_ops(nranks), label="ops")
        sel = _make(name, rank, nranks, seed=3)
        assert isinstance(sel, AdaptiveVictimSelector)

        def check():
            w = sel.sampling_weights()
            assert w.shape == (nranks,)
            assert np.all(np.isfinite(w))
            assert np.all(w >= 0.0)
            assert w[rank] == 0.0
            assert w.sum() == pytest.approx(1.0)

        check()
        for op in ops:
            if op == "draw":
                sel.next_victim()
            else:
                sel.notify(*op)
            check()

    def test_weights_do_not_mutate_state(self, name):
        """Introspection is read-only: calling it must not perturb the
        victim stream (the differential suites depend on that)."""
        a = _make(name, 1, 8, seed=11)
        b = _make(name, 1, 8, seed=11)
        stream_a = []
        for i in range(50):
            a.sampling_weights()
            stream_a.append(a.next_victim())
            a.notify(stream_a[-1], success=(i % 4 == 0))
            a.sampling_weights()
        stream_b = []
        for i in range(50):
            stream_b.append(b.next_victim())
            b.notify(stream_b[-1], success=(i % 4 == 0))
        assert stream_a == stream_b
