"""The adaptive selectors against their numpy-scalar reference.

The selectors in :mod:`repro.select.adaptive` draw from a raw-block
stream and keep flat state (a Python argmax over the bands, prefix
sums recomputed from the lowest notified victim, a kept backoff pool).
The classes below are test-only copies of the states they replaced,
which drew with ``Generator`` scalar calls and rebuilt a numpy mask or
cumulative vector per draw.  Over drawn sequences of draws and
notifies — about the victim just drawn, about any rank, about the
caller itself and about ranks out of range — both must give the same
victims and byte-identical ``sampling_weights()``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import registry
from repro.core.victim import _rank_rng
from repro.net.allocation import build_placement

_SR_FLOOR = 0.05


class _EpsilonGreedyReference:
    def __init__(self, rank, nranks, distances, eps, rng):
        self._rank, self._nranks, self._eps, self._rng = rank, nranks, eps, rng
        self._others = np.array([r for r in range(nranks) if r != rank])
        d = np.asarray(distances, dtype=np.float64)[self._others]
        edges = np.unique(np.quantile(d, (0.25, 0.5, 0.75)))
        raw = np.searchsorted(edges, d, side="left")
        used = np.unique(raw)
        compact = np.searchsorted(used, raw)
        self._members = [self._others[compact == b] for b in range(used.size)]
        self._band_of = np.full(nranks, -1, dtype=np.int64)
        self._band_of[self._others] = compact
        self._succ = np.full(used.size, 1.0)
        self._att = np.full(used.size, 2.0)

    def _best_band(self):
        return int(np.argmax(self._succ / self._att))

    def next_victim(self):
        explore = self._rng.random() < self._eps
        pool = self._others if explore else self._members[self._best_band()]
        return int(pool[self._rng.integers(0, pool.size)])

    def notify(self, victim, success):
        if not 0 <= victim < self._nranks or victim == self._rank:
            return
        b = self._band_of[victim]
        self._succ[b] += 1.0 if success else 0.0
        self._att[b] += 1.0

    def sampling_weights(self):
        w = np.zeros(self._nranks)
        w[self._others] = self._eps / self._others.size
        best = self._members[self._best_band()]
        w[best] += (1.0 - self._eps) / best.size
        return w


class _SuccessRateReference:
    def __init__(self, rank, nranks, decay, rng):
        self._rank, self._nranks, self._decay, self._rng = (
            rank, nranks, decay, rng,
        )
        self._scores = np.full(nranks, 0.5)
        self._scores[rank] = 0.0
        self._cum = None

    def _weights(self):
        w = self._scores + _SR_FLOOR
        w[self._rank] = 0.0
        return w

    def next_victim(self):
        if self._cum is None:
            cum = np.cumsum(self._weights())
            cum /= cum[-1]
            cum[-1] = 1.0
            self._cum = cum
        return int(np.searchsorted(self._cum, self._rng.random(), side="right"))

    def notify(self, victim, success):
        if not 0 <= victim < self._nranks or victim == self._rank:
            return
        outcome = 1.0 if success else 0.0
        self._scores[victim] = (
            self._decay * self._scores[victim] + (1.0 - self._decay) * outcome
        )
        self._cum = None

    def sampling_weights(self):
        w = self._weights()
        return w / w.sum()


class _FailureBackoffReference:
    def __init__(self, rank, nranks, fails, rng):
        self._rank, self._nranks, self._fails, self._rng = (
            rank, nranks, fails, rng,
        )
        self._cooldown = max(4, nranks)
        self._others = np.array([r for r in range(nranks) if r != rank])
        self._streak = np.zeros(nranks, dtype=np.int64)
        self._demoted_until = np.zeros(nranks, dtype=np.int64)
        self._draws = 0

    def _eligible(self, at_draw):
        pool = self._others[self._demoted_until[self._others] <= at_draw]
        return pool if pool.size else self._others

    def next_victim(self):
        self._draws += 1
        pool = self._eligible(self._draws)
        return int(pool[self._rng.integers(0, pool.size)])

    def notify(self, victim, success):
        if not 0 <= victim < self._nranks or victim == self._rank:
            return
        if success:
            self._streak[victim] = 0
            self._demoted_until[victim] = 0
            return
        self._streak[victim] += 1
        if self._streak[victim] >= self._fails:
            self._demoted_until[victim] = self._draws + self._cooldown
            self._streak[victim] = 0

    def sampling_weights(self):
        pool = self._eligible(self._draws + 1)
        w = np.zeros(self._nranks)
        w[pool] = 1.0 / pool.size
        return w


def _reference(name, rank, nranks, placement, seed):
    rng = _rank_rng(seed, rank)
    family, _, arg = name.partition("[")
    arg = arg.rstrip("]")
    if family == "adapt-eps":
        return _EpsilonGreedyReference(
            rank, nranks, placement.euclidean.row(rank), float(arg), rng
        )
    if family == "adapt-sr":
        return _SuccessRateReference(rank, nranks, float(arg), rng)
    return _FailureBackoffReference(rank, nranks, int(arg), rng)


_NAMES = [
    "adapt-eps[0]", "adapt-eps[0.1]", "adapt-eps[0.5]", "adapt-eps[1]",
    "adapt-sr[0.5]", "adapt-sr[0.9]", "adapt-sr[0.99]",
    "adapt-backoff[1]", "adapt-backoff[2]", "adapt-backoff[3]",
]


@st.composite
def _scripts(draw):
    """``(nranks, rank, seed, ops)``.  An op draws a victim, notifies
    about the last victim drawn, or notifies about any rank in
    ``[-2, nranks + 1]`` — the caller, never-drawn ranks and ranks out
    of range included."""
    nranks = draw(st.sampled_from([2, 3, 5, 9, 16, 40]), label="nranks")
    rank = draw(st.integers(0, nranks - 1), label="rank")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    op = st.one_of(
        st.just(("draw", None)),
        st.tuples(st.just("last"), st.booleans()),
        st.tuples(st.integers(-2, nranks + 1), st.booleans()),
    )
    ops = draw(st.lists(op, max_size=300), label="ops")
    return nranks, rank, seed, ops


@pytest.mark.parametrize("name", _NAMES)
@settings(max_examples=40, deadline=None)
@given(script=_scripts())
def test_victims_and_weights_match_the_reference(name, script):
    nranks, rank, seed, ops = script
    placement = build_placement(nranks, "1/N")
    new = registry.resolve("selector", name).make(rank, nranks, placement, seed)
    old = _reference(name, rank, nranks, placement, seed)
    assert new.sampling_weights().tobytes() == old.sampling_weights().tobytes()
    last = (rank + 1) % nranks
    for what, success in ops:
        if what == "draw":
            last = new.next_victim()
            assert type(last) is int
            assert last == old.next_victim()
        else:
            victim = last if what == "last" else what
            new.notify(victim, success)
            old.notify(victim, success)
        assert (
            new.sampling_weights().tobytes() == old.sampling_weights().tobytes()
        )


@pytest.mark.parametrize("name", ["adapt-sr[0.9]", "adapt-backoff[2]"])
def test_a_long_run_at_256_ranks_matches(name):
    # Many demotions expire and many prefix sums go stale from low
    # ranks: the paths a 300-op script reaches only at small N.  Every
    # third step also reports on a rank the selector did not draw (a
    # lifeline push, a relayed grant), which re-promotes or re-demotes
    # ranks whose earlier expiry is still queued.
    nranks, rank = 256, 77
    placement = build_placement(nranks, "1/N")
    new = registry.resolve("selector", name).make(rank, nranks, placement, 4)
    old = _reference(name, rank, nranks, placement, 4)
    for i in range(20_000):
        victim = new.next_victim()
        assert victim == old.next_victim()
        success = i % 5 == 0
        new.notify(victim, success)
        old.notify(victim, success)
        if i % 3 == 0:
            other = (i * 37) % (nranks + 2) - 1
            new.notify(other, i % 4 == 0)
            old.notify(other, i % 4 == 0)
        if i % 1000 == 0:
            assert (
                new.sampling_weights().tobytes()
                == old.sampling_weights().tobytes()
            )


def test_success_rate_sums_are_the_cumsum_bit_for_bit():
    # A victim differs only when a draw lands between two roundings of
    # an edge, so the drawn scripts cannot see a last-bit error in the
    # prefix sums; compare them with the reference's own vector.
    nranks, rank = 40, 13
    new = registry.resolve("selector", "adapt-sr[0.9]").make(rank, nranks, seed=2)
    old = _reference("adapt-sr[0.9]", rank, nranks, None, 2)
    for i in range(3000):
        victim = new.next_victim()
        assert victim == old.next_victim()
        cumsum = np.cumsum(old._weights())
        assert new._sums[1:].tobytes() == cumsum.tobytes()
        for v in (victim, (i * 7) % nranks):
            new.notify(v, i % 3 == 0)
            old.notify(v, i % 3 == 0)
