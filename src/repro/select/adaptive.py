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

import numpy as np

from repro.core.registry import Registry, registry_for
from repro.core.steal_policy import StealPolicy
from repro.core.victim import SelectorFactory, VictimSelector, _rank_rng
from repro.errors import ConfigurationError

__all__ = [
    "AdaptiveVictimSelector",
    "EpsilonGreedySelector",
    "SuccessRateSelector",
    "FailureBackoffSelector",
    "AdaptiveStealPolicy",
]


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
        self._rng = rng
        self._others = np.array([r for r in range(nranks) if r != rank])
        d = np.asarray(distances, dtype=np.float64)[self._others]
        # Quartile edges over the caller's distance row; np.unique
        # collapses degenerate quartiles (small jobs, co-located ranks)
        # so bands are never empty.
        edges = np.unique(np.quantile(d, (0.25, 0.5, 0.75)))
        raw = np.searchsorted(edges, d, side="left")
        used = np.unique(raw)
        compact = np.searchsorted(used, raw)  # contiguous band ids
        self._nbands = int(used.size)
        self._members = [
            self._others[compact == b] for b in range(self._nbands)
        ]
        # band id per rank (self = -1), for O(1) notify.
        self._band_of = np.full(nranks, -1, dtype=np.int64)
        self._band_of[self._others] = compact
        # Laplace prior: one success in two attempts per band, so every
        # band starts at rate 0.5 and a single failure cannot zero it.
        self._succ = np.full(self._nbands, 1.0)
        self._att = np.full(self._nbands, 2.0)

    def _best_band(self) -> int:
        # argmax breaks ties toward the lowest index == nearest band
        # (bands are built in ascending distance order).
        return int(np.argmax(self._succ / self._att))

    def next_victim(self) -> int:
        explore = self._rng.random() < self._eps
        pool = self._others if explore else self._members[self._best_band()]
        return int(pool[self._rng.integers(0, pool.size)])

    def notify(self, victim: int, success: bool) -> None:
        if not 0 <= victim < self._nranks or victim == self._rank:
            return
        b = self._band_of[victim]
        self._succ[b] += 1.0 if success else 0.0
        self._att[b] += 1.0

    def sampling_weights(self) -> np.ndarray:
        w = np.zeros(self._nranks)
        w[self._others] = self._eps / self._others.size
        best = self._members[self._best_band()]
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
    def __init__(
        self, rank: int, nranks: int, decay: float, rng: np.random.Generator
    ):
        self._rank = rank
        self._nranks = nranks
        self._decay = decay
        self._rng = rng
        self._scores = np.full(nranks, 0.5)
        self._scores[rank] = 0.0
        self._cum: np.ndarray | None = None  # rebuilt when dirty

    def _weights(self) -> np.ndarray:
        w = self._scores + _SR_FLOOR
        w[self._rank] = 0.0
        return w

    def next_victim(self) -> int:
        if self._cum is None:
            cum = np.cumsum(self._weights())
            cum /= cum[-1]
            # Pin the top edge (draws live in [0, 1)); same fp guard as
            # the static _SkewedState.
            cum[-1] = 1.0
            self._cum = cum
        # searchsorted(side="right") can never land on the caller's own
        # zero-width bin: cum[rank] == cum[rank - 1].
        return int(
            np.searchsorted(self._cum, self._rng.random(), side="right")
        )

    def notify(self, victim: int, success: bool) -> None:
        if not 0 <= victim < self._nranks or victim == self._rank:
            return
        outcome = 1.0 if success else 0.0
        self._scores[victim] = (
            self._decay * self._scores[victim] + (1.0 - self._decay) * outcome
        )
        self._cum = None

    def sampling_weights(self) -> np.ndarray:
        w = self._weights()
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
    def __init__(
        self, rank: int, nranks: int, fails: int, rng: np.random.Generator
    ):
        self._rank = rank
        self._nranks = nranks
        self._fails = fails
        # Long enough for a starved victim to regain work, short enough
        # that demotion is temporary on any job size.
        self._cooldown = max(4, nranks)
        self._rng = rng
        self._others = np.array([r for r in range(nranks) if r != rank])
        self._streak = np.zeros(nranks, dtype=np.int64)
        self._demoted_until = np.zeros(nranks, dtype=np.int64)
        self._draws = 0

    def _eligible(self, at_draw: int) -> np.ndarray:
        pool = self._others[self._demoted_until[self._others] <= at_draw]
        # Everyone demoted -> everyone eligible again (Picasso: when
        # the bitset fills up, clear it and fall back to uniform).
        return pool if pool.size else self._others

    def next_victim(self) -> int:
        self._draws += 1
        pool = self._eligible(self._draws)
        return int(pool[self._rng.integers(0, pool.size)])

    def notify(self, victim: int, success: bool) -> None:
        if not 0 <= victim < self._nranks or victim == self._rank:
            return
        if success:
            self._streak[victim] = 0
            self._demoted_until[victim] = 0  # fresh work: re-promote
            return
        self._streak[victim] += 1
        if self._streak[victim] >= self._fails:
            self._demoted_until[victim] = self._draws + self._cooldown
            self._streak[victim] = 0

    def sampling_weights(self) -> np.ndarray:
        pool = self._eligible(self._draws + 1)
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
