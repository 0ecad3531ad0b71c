"""Adaptive victim selectors and the adaptive steal-amount policy.

Three selector families that learn from steal outcomes during the run
(SNIPPETS.md Snippet 1, dsdx ``AdaptiveWorker``, and Snippet 3's
Picasso victim bitsets are the idioms):

:class:`EpsilonGreedySelector` (``adapt-eps[<eps>]``)
    Bandit over Tofu *distance bands*: the other ranks are bucketed by
    Euclidean distance quartiles; with probability ``eps`` the thief
    explores uniformly, otherwise it exploits the band with the best
    observed steal-success rate (Laplace prior, nearest band wins
    ties) and picks a uniform member of it.

:class:`SuccessRateSelector` (``adapt-sr[<decay>]``)
    Per-victim success score with exponential decay
    (``s <- decay*s + (1-decay)*outcome``); victims are sampled with
    probability proportional to ``score + floor``, so repeatedly
    unproductive victims fade without ever reaching zero support.

:class:`FailureBackoffSelector` (``adapt-backoff[<fails>]``)
    Uniform over the others, but a victim that fails ``fails`` times in
    a row is demoted for a cooldown window of draws (the Picasso
    bitset idiom: mark starved victims, fall back to everyone when the
    whole set is marked).

:class:`AdaptiveStealPolicy` (``adaptive[<fails>]``)
    Steal-amount escalation: steal-one until a thief has failed
    ``fails`` consecutive times, then ask for half.  The policy object
    itself is **stateless** — one instance is shared by every worker
    in a process, so the failure streak lives on the thief
    (``Worker.consecutive_failed_steals``) and travels to the victim
    as the body of the steal request (``escalated``).

Determinism contract (enforced by the differential and property test
suites): selector state is a pure function of ``(seed, rank)`` and the
sequence of ``next_victim``/``notify`` calls — no wall clock, no
global RNG — so both DES engines, which replay identical per-rank call
sequences, produce identical victim streams.  ``notify`` must accept
*any* rank (lifeline pushes report victims the selector never drew).

Every adaptive state exposes :meth:`sampling_weights` — the exact
distribution the next draw would use — for the hypothesis property
suite (finite, non-negative, self-weight zero, sums to one).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right, insort
from collections import deque

import numpy as np

from repro.core.registry import Registry, registry_for
from repro.core.steal_policy import StealPolicy
from repro.core.victim import (
    SelectorFactory,
    VictimSelector,
    _DrawStream,
    _rank_rng,
)
from repro.errors import ConfigurationError

__all__ = [
    "AdaptiveVictimSelector",
    "EpsilonGreedySelector",
    "SuccessRateSelector",
    "FailureBackoffSelector",
    "AdaptiveStealPolicy",
]


def _ranks(values: np.ndarray) -> array:
    """Integers as a flat ``array('q')``: indexing it gives a Python
    int, and it holds no numpy buffer export."""
    return array("q", values.astype(np.int64).tobytes())


class AdaptiveVictimSelector(VictimSelector):
    """Base for per-rank adaptive state: adds the weights introspection."""

    def sampling_weights(self) -> np.ndarray:
        """Distribution of the *next* draw over all ranks.

        Must be finite, non-negative, zero at the caller's own rank and
        sum to one; must not mutate the selector state.
        """
        raise NotImplementedError


# ----------------------------------------------------------------------
# Epsilon-greedy over distance bands
# ----------------------------------------------------------------------


class _EpsilonGreedyState(AdaptiveVictimSelector):
    def __init__(
        self,
        rank: int,
        nranks: int,
        distances: np.ndarray,
        eps: float,
        rng: np.random.Generator,
    ):
        self._rank = rank
        self._nranks = nranks
        self._eps = eps
        self._draw = _DrawStream(rng)
        others = np.array([r for r in range(nranks) if r != rank])
        d = np.asarray(distances, dtype=np.float64)[others]
        # Quartile edges over the caller's distance row; np.unique
        # collapses degenerate quartiles (small jobs, co-located ranks)
        # so bands are never empty.
        edges = np.unique(np.quantile(d, (0.25, 0.5, 0.75)))
        raw = np.searchsorted(edges, d, side="left")
        used = np.unique(raw)
        compact = np.searchsorted(used, raw)  # contiguous band ids
        self._all = _ranks(others)
        self._pools = [_ranks(others[compact == b]) for b in range(used.size)]
        # band id per rank (self = -1), for O(1) notify.
        band_of = np.full(nranks, -1)
        band_of[others] = compact
        self._band_of = _ranks(band_of)
        # Laplace prior: one success in two attempts per band, so every
        # band starts at rate 0.5 and a single failure cannot zero it.
        self._succ = [1.0] * used.size
        self._att = [2.0] * used.size
        self._rate = [0.5] * used.size
        self._best = 0

    def next_victim(self) -> int:
        draw = self._draw
        explore = draw.random() < self._eps
        pool = self._all if explore else self._pools[self._best]
        return pool[draw.integers(len(pool))]

    def notify(self, victim: int, success: bool) -> None:
        if not 0 <= victim < self._nranks or victim == self._rank:
            return
        b = self._band_of[victim]
        if success:
            self._succ[b] += 1.0
        self._att[b] += 1.0
        rate = self._rate
        rate[b] = self._succ[b] / self._att[b]
        # The first maximum, as ``np.argmax`` picks: ties go to the
        # nearest band (bands are built in ascending distance order).
        self._best = rate.index(max(rate))

    def sampling_weights(self) -> np.ndarray:
        others = np.frombuffer(self._all, dtype=np.int64)
        best = np.frombuffer(self._pools[self._best], dtype=np.int64)
        w = np.zeros(self._nranks)
        w[others] = self._eps / others.size
        w[best] += (1.0 - self._eps) / best.size
        return w


class EpsilonGreedySelector(SelectorFactory):
    """Epsilon-greedy bandit over Tofu distance bands."""

    needs_placement = True

    def __init__(self, eps: float = 0.1):
        if not 0.0 <= eps <= 1.0:
            raise ConfigurationError(f"eps must be in [0, 1], got {eps}")
        self.eps = float(eps)
        self.name = Registry.bracket_name("adapt-eps", self.eps)

    def make(self, rank, nranks, placement=None, seed=0):
        self._check(rank, nranks, placement)
        assert placement is not None
        return _EpsilonGreedyState(
            rank,
            nranks,
            placement.euclidean.row(rank),
            self.eps,
            _rank_rng(seed, rank),
        )


# ----------------------------------------------------------------------
# Success-rate-weighted sampling with exponential decay
# ----------------------------------------------------------------------

#: Sampling floor added to every score: keeps support full so a victim
#: written off early can still be rediscovered once it has work.
_SR_FLOOR = 0.05


class _SuccessRateState(AdaptiveVictimSelector):
    """Draws search the prefix sums of the weights ``score + floor``.

    Both vectors sit one slot right of their rank (``_sums[j]`` is the
    sum of the first ``j`` weights, ``_sums[0] == 0``).  A notify
    changes one weight, so only the sums past the lowest victim
    notified since the last draw are stale; the next draw recomputes
    those with one ``np.add.accumulate`` seeded with the last good sum
    (strictly left to right, as the ``np.cumsum`` it replaces), then a
    bisect keyed on ``sum / total`` — the normalised edge — finds the
    first edge above the uniform draw ``u``: the victims are
    ``searchsorted(cumsum / total, u, side="right")`` bit for bit, and
    the last edge is ``total / total == 1.0`` exactly.
    """

    def __init__(
        self, rank: int, nranks: int, decay: float, rng: np.random.Generator
    ):
        self._rank = rank
        self._nranks = nranks
        self._decay = decay
        self._gain = 1.0 - decay
        self._draw = _DrawStream(rng)
        self._scores = array("d", [0.5]) * nranks
        self._scores[rank] = 0.0
        self._weights = np.full(nranks + 1, 0.5 + _SR_FLOOR)
        self._weights[rank + 1] = 0.0
        self._w = memoryview(self._weights)
        self._sums = np.zeros(nranks + 1)
        self._s = memoryview(self._sums)
        self._stale = 0  # _sums[j] is good for j <= _stale

    def next_victim(self) -> int:
        lo = self._stale
        n = self._nranks
        if lo < n:
            # The slot before the stale weights briefly holds the last
            # good sum, so the accumulate starts from it.
            w = self._w
            kept = w[lo]
            w[lo] = self._s[lo]
            np.add.accumulate(self._weights[lo:], out=self._sums[lo:])
            w[lo] = kept
            self._stale = n
        sums = self._s
        u = self._draw.random()
        # The caller's own bin has zero width (its sum equals the one
        # before), so the search never lands on it.
        return bisect_right(sums, u, 1, key=sums[n].__rtruediv__) - 1

    def notify(self, victim: int, success: bool) -> None:
        if not 0 <= victim < self._nranks or victim == self._rank:
            return
        score = self._decay * self._scores[victim] + (
            self._gain if success else 0.0
        )
        self._scores[victim] = score
        self._w[victim + 1] = score + _SR_FLOOR
        if victim < self._stale:
            self._stale = victim

    def sampling_weights(self) -> np.ndarray:
        w = self._weights[1:]
        return w / w.sum()


class SuccessRateSelector(SelectorFactory):
    """Sample victims proportionally to decayed steal-success scores."""

    def __init__(self, decay: float = 0.9):
        if not 0.0 < decay < 1.0:
            raise ConfigurationError(f"decay must be in (0, 1), got {decay}")
        self.decay = float(decay)
        self.name = Registry.bracket_name("adapt-sr", self.decay)

    def make(self, rank, nranks, placement=None, seed=0):
        self._check(rank, nranks, placement)
        return _SuccessRateState(rank, nranks, self.decay, _rank_rng(seed, rank))


# ----------------------------------------------------------------------
# Per-victim failure backoff
# ----------------------------------------------------------------------


class _FailureBackoffState(AdaptiveVictimSelector):
    """Uniform over a kept pool of the eligible ranks.

    ``_until[v]`` is the draw from which a demoted ``v`` is eligible
    again, and 0 exactly when ``v`` is in the pool (ascending, as the
    mask it replaces gave).  A demotion takes ``v`` out and queues its
    expiry; expiries come due in queue order (the draw count never
    falls), and a draw first returns the due ones to the pool, setting
    their ``_until`` to 0 — eligible either way.  A queued expiry
    whose ``_until`` has moved on (a success re-promoted ``v``, or a
    later demotion replaced it) is dropped.
    """

    def __init__(
        self, rank: int, nranks: int, fails: int, rng: np.random.Generator
    ):
        self._rank = rank
        self._nranks = nranks
        self._fails = fails
        # Long enough for a starved victim to regain work, short enough
        # that demotion is temporary on any job size.
        self._cooldown = max(4, nranks)
        self._draw = _DrawStream(rng)
        self._all = _ranks(np.delete(np.arange(nranks), rank))
        self._pool = array("q", self._all)
        self._streak = array("q", bytes(8 * nranks))
        self._until = array("q", bytes(8 * nranks))
        self._expiry: deque[tuple[int, int]] = deque()
        self._draws = 0

    def next_victim(self) -> int:
        draws = self._draws = self._draws + 1
        expiry = self._expiry
        while expiry and expiry[0][0] <= draws:
            at, v = expiry.popleft()
            if self._until[v] == at:
                self._until[v] = 0
                insort(self._pool, v)
        # Everyone demoted -> everyone eligible again (Picasso: when
        # the bitset fills up, clear it and fall back to uniform).
        pool = self._pool or self._all
        return pool[self._draw.integers(len(pool))]

    def notify(self, victim: int, success: bool) -> None:
        if not 0 <= victim < self._nranks or victim == self._rank:
            return
        until = self._until
        if success:
            self._streak[victim] = 0
            if until[victim]:  # fresh work: re-promote
                until[victim] = 0
                insort(self._pool, victim)
            return
        streak = self._streak[victim] + 1
        if streak >= self._fails:
            streak = 0
            if not until[victim]:
                del self._pool[bisect_left(self._pool, victim)]
            until[victim] = at = self._draws + self._cooldown
            self._expiry.append((at, victim))
        self._streak[victim] = streak

    def sampling_weights(self) -> np.ndarray:
        others = np.frombuffer(self._all, dtype=np.int64)
        until = np.frombuffer(self._until, dtype=np.int64)
        pool = others[until[others] <= self._draws + 1]
        if not pool.size:
            pool = others
        w = np.zeros(self._nranks)
        w[pool] = 1.0 / pool.size
        return w


class FailureBackoffSelector(SelectorFactory):
    """Uniform selection with temporary demotion of failing victims."""

    def __init__(self, fails: int = 2):
        if fails < 1:
            raise ConfigurationError(f"fails must be >= 1, got {fails}")
        self.fails = int(fails)
        self.name = Registry.bracket_name("adapt-backoff", self.fails)

    def make(self, rank, nranks, placement=None, seed=0):
        self._check(rank, nranks, placement)
        return _FailureBackoffState(
            rank, nranks, self.fails, _rank_rng(seed, rank)
        )


# ----------------------------------------------------------------------
# Adaptive steal amount
# ----------------------------------------------------------------------


class AdaptiveStealPolicy(StealPolicy):
    """Steal one; escalate to half after ``escalate_after`` failures.

    Stateless by contract (see module docs): the worker tracks its own
    failure streak and marks requests escalated; this object only maps
    the flag to an amount, so sharing it across ranks and processes is
    safe.
    """

    def __init__(self, escalate_after: int = 3):
        if escalate_after < 1:
            raise ConfigurationError(
                f"escalate_after must be >= 1, got {escalate_after}"
            )
        self.escalate_after = int(escalate_after)
        self.name = Registry.bracket_name("adaptive", self.escalate_after)

    def chunks_to_steal(self, stealable: int) -> int:
        self._check(stealable)
        return min(1, stealable)

    def chunks_for_request(self, stealable: int, escalated: bool = False) -> int:
        self._check(stealable)
        if escalated:
            return math.ceil(stealable / 2)
        return min(1, stealable)


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------

_SELECTORS = registry_for("selector")
_SELECTORS.register("adapt-eps", EpsilonGreedySelector)
_SELECTORS.register("adapt-sr", SuccessRateSelector)
_SELECTORS.register("adapt-backoff", FailureBackoffSelector)
_SELECTORS.register_bracket("adapt-eps", "eps", EpsilonGreedySelector)
_SELECTORS.register_bracket("adapt-sr", "decay", SuccessRateSelector)
_SELECTORS.register_bracket("adapt-backoff", "fails", FailureBackoffSelector, int)

_POLICIES = registry_for("steal_policy")
_POLICIES.register("adaptive", AdaptiveStealPolicy)
_POLICIES.register_bracket("adaptive", "fails", AdaptiveStealPolicy, int)
