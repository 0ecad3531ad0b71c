"""Victim selection strategies for distributed work stealing.

A *selector factory* (:class:`SelectorFactory`) describes a strategy;
binding it to a rank (:meth:`SelectorFactory.make`) yields the
per-rank :class:`VictimSelector` the scheduler queries whenever it
needs someone to steal from.

The paper's three protagonists:

:class:`RoundRobinSelector` (*Reference*)
    The deterministic scheme of the public UTS release: rank ``i``
    first targets ``i + 1 mod N`` and walks the ring from wherever the
    previous search stopped.  §II-A: "a successful steal does not
    impact this choice: the next search for work will start at the
    neighbor of the last victim."

:class:`UniformRandomSelector` (*Rand*)
    Uniform over all other ranks, fresh draw per attempt — the
    textbook strategy the theory analyses.

:class:`DistanceSkewedSelector` (*Tofu*)
    The paper's contribution (§IV-B): victim ``j`` is drawn with
    probability proportional to ``w(i, j) = 1/e(i, j)`` where ``e`` is
    the Euclidean distance between the hosting nodes in the Tofu
    coordinates (``w = 1`` when ``e = 0``, i.e. co-located ranks).

Comparators from related work, used by the ablation benchmarks:
:class:`PowerSkewedSelector` (generalised ``1/d^alpha``),
:class:`HierarchicalSelector` (near/far two-level scheme),
:class:`LastVictimSelector` (sticky steals).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from repro.core.registry import Registry, registry_for
from repro.errors import ConfigurationError
from repro.net.allocation import Placement

__all__ = [
    "VictimSelector",
    "SelectorFactory",
    "RoundRobinSelector",
    "UniformRandomSelector",
    "DistanceSkewedSelector",
    "PowerSkewedSelector",
    "LatencySkewedSelector",
    "HierarchicalSelector",
    "LastVictimSelector",
    "selector_by_name",
    "skewed_probabilities",
]


class VictimSelector(ABC):
    """Per-rank selection state; produced by a :class:`SelectorFactory`."""

    @abstractmethod
    def next_victim(self) -> int:
        """Return the next victim rank to try (never the caller's own)."""

    def notify(self, victim: int, success: bool) -> None:
        """Feedback hook: the steal from ``victim`` succeeded/failed.

        Most strategies ignore it; sticky strategies
        (:class:`LastVictimSelector`) use it.
        """


class SelectorFactory(ABC):
    """A victim-selection strategy, bindable to each rank of a job."""

    #: Identifier used in configs and reports.
    name: str = "abstract"

    #: Whether :meth:`make` requires a :class:`Placement` (topology info).
    needs_placement: bool = False

    @abstractmethod
    def make(
        self,
        rank: int,
        nranks: int,
        placement: Placement | None = None,
        seed: int = 0,
    ) -> VictimSelector:
        """Bind the strategy to ``rank`` of an ``nranks``-process job."""

    def _check(self, rank: int, nranks: int, placement: Placement | None) -> None:
        if nranks < 2:
            raise ConfigurationError(
                f"victim selection needs >= 2 ranks, got {nranks}"
            )
        if not 0 <= rank < nranks:
            raise ConfigurationError(f"rank {rank} out of range [0, {nranks})")
        if self.needs_placement and placement is None:
            raise ConfigurationError(
                f"selector {self.name!r} requires a Placement"
            )
        if placement is not None and placement.nranks != nranks:
            raise ConfigurationError(
                f"placement has {placement.nranks} ranks, job has {nranks}"
            )


def _rank_rng(seed: int, rank: int) -> np.random.Generator:
    """Independent, reproducible per-rank RNG stream."""
    return np.random.default_rng(np.random.SeedSequence([seed, rank]))


# ----------------------------------------------------------------------
# Reference: deterministic round robin
# ----------------------------------------------------------------------


class _RoundRobinState(VictimSelector):
    def __init__(self, rank: int, nranks: int):
        self._rank = rank
        self._nranks = nranks
        # First victim is our neighbour rank + 1 (mod N).
        self._next = (rank + 1) % nranks

    def next_victim(self) -> int:
        victim = self._next
        if victim == self._rank:  # never steal ourselves
            victim = (victim + 1) % self._nranks
        self._next = (victim + 1) % self._nranks
        return victim


class RoundRobinSelector(SelectorFactory):
    """The reference UTS deterministic ring walk."""

    name = "reference"

    def make(self, rank, nranks, placement=None, seed=0):
        self._check(rank, nranks, placement)
        return _RoundRobinState(rank, nranks)


# ----------------------------------------------------------------------
# Rand: uniform random
# ----------------------------------------------------------------------


#: Selectors draw random numbers in blocks to amortise NumPy call
#: overhead (and, for skewed draws, one rebuild of the cumulative
#: vector per block); the stream is identical to drawing one at a
#: time.  A block is read through a ``memoryview``, which indexes to a
#: Python int without building a numpy scalar (``.tolist()`` would too,
#: at 30 MiB of int objects for 4096 ranks).
_DRAW_BLOCK = 512
_NO_DRAWS = memoryview(b"")


class _UniformState(VictimSelector):
    def __init__(self, rank: int, nranks: int, rng: np.random.Generator):
        self._rank = rank
        self._nranks = nranks
        self._rng = rng
        self._buf = _NO_DRAWS
        self._pos = 0

    def next_victim(self) -> int:
        # Draw over nranks-1 victims and shift past our own rank: exact
        # uniform over the others with a single draw.
        pos = self._pos
        buf = self._buf
        if pos >= len(buf):
            buf = self._buf = memoryview(
                self._rng.integers(0, self._nranks - 1, size=_DRAW_BLOCK)
            )
            pos = 0
        self._pos = pos + 1
        v = buf[pos]
        return v + 1 if v >= self._rank else v


class UniformRandomSelector(SelectorFactory):
    """Uniform random selection over all other ranks."""

    name = "rand"

    def make(self, rank, nranks, placement=None, seed=0):
        self._check(rank, nranks, placement)
        return _UniformState(rank, nranks, _rank_rng(seed, rank))


# ----------------------------------------------------------------------
# Tofu: distance-skewed random
# ----------------------------------------------------------------------


def skewed_probabilities(
    rank: int, euclidean_row: np.ndarray, alpha: float = 1.0
) -> np.ndarray:
    """The paper's victim distribution ``p(rank, .)``.

    ``w(i, j) = 1 / e(i, j)^alpha`` when ``e != 0``, ``1`` when
    ``e == 0`` (co-located ranks), ``0`` for ``j == i``; normalised
    over ``j != i``.  ``alpha = 1`` is the paper's formula; ``alpha``
    generalises it for the ablation study.
    """
    e = np.asarray(euclidean_row, dtype=np.float64)
    with np.errstate(divide="ignore"):
        w = np.where(e > 0.0, 1.0 / np.power(e, alpha), 1.0)
    w[rank] = 0.0
    total = w.sum()
    if not 0.0 < total < math.inf:
        raise ConfigurationError(
            f"degenerate victim distribution (weights sum to {total})"
        )
    return w / total


def _check_alpha(alpha: float) -> float:
    """``alpha`` as a float, or :class:`ConfigurationError` unless it is
    finite and >= 0 (a NaN weight would draw victim 0 forever)."""
    if not 0 <= alpha < math.inf:
        raise ConfigurationError(f"alpha must be finite and >= 0, got {alpha}")
    return float(alpha)


class _SkewedState(VictimSelector):
    """Draws from a cumulative distribution it does not keep.

    A cumulative vector is N float64 per rank — N x N per job — and a
    draw reads one edge of it.  So the state holds ``build``, the
    closure that computes the vector, and each refill builds it, draws
    one block of victims and drops it; what stays is the block, in the
    narrowest unsigned dtype.  ``rng.random`` streams do not depend on
    the block size, and the first block is drawn here so a degenerate
    distribution raises at construction.
    """

    def __init__(self, build, rng: np.random.Generator):
        self._build = build
        self._rng = rng
        self._buf = self._draw_block()
        self._pos = 0

    def cumulative(self) -> np.ndarray:
        """The vector draws are searched in (rebuilt on every call).

        Float rounding can leave cum[-1] a few ulps below 1.0, and
        searchsorted(side="right") would then map a draw above it to
        len(cum) — an out-of-range victim.  The last edge is pinned to
        1.0: draws live in [0, 1), so every index is then in [0, len).
        """
        cumulative = np.array(self._build(), dtype=np.float64)
        cumulative[-1] = 1.0
        return cumulative

    def _draw_block(self) -> memoryview:
        cumulative = self.cumulative()
        victims = np.searchsorted(
            cumulative, self._rng.random(_DRAW_BLOCK), side="right"
        )
        return memoryview(
            victims.astype(np.min_scalar_type(len(cumulative) - 1))
        )

    def next_victim(self) -> int:
        pos = self._pos
        buf = self._buf
        if pos >= len(buf):
            buf = self._buf = self._draw_block()
            pos = 0
        self._pos = pos + 1
        return buf[pos]


class PowerSkewedSelector(SelectorFactory):
    """Distance-skewed selection with weight ``1/e(i,j)^alpha``.

    ``alpha = 0`` degenerates to uniform random; larger ``alpha``
    concentrates steals on nearby ranks.  The paper's *Tofu* strategy
    is ``alpha = 1`` (see :class:`DistanceSkewedSelector`).
    """

    needs_placement = True

    def __init__(self, alpha: float = 1.0):
        self.alpha = _check_alpha(alpha)
        self.name = Registry.bracket_name("skew", self.alpha)

    def probabilities(self, rank: int, placement: Placement) -> np.ndarray:
        """Expose the distribution itself (used to regenerate Fig 8)."""
        return skewed_probabilities(
            rank, placement.euclidean.row(rank), self.alpha
        )

    def make(self, rank, nranks, placement=None, seed=0):
        self._check(rank, nranks, placement)
        assert placement is not None
        return _SkewedState(
            lambda: np.cumsum(self.probabilities(rank, placement)),
            _rank_rng(seed, rank),
        )


class DistanceSkewedSelector(PowerSkewedSelector):
    """The paper's *Tofu* strategy: ``w(i, j) = 1/e(i, j)``."""

    def __init__(self) -> None:
        super().__init__(alpha=1.0)
        self.name = "tofu"


class LatencySkewedSelector(SelectorFactory):
    """Weight victims by measured latency instead of coordinates.

    Extension (paper §VII asks for strategies accounting for actual
    link characteristics): ``w(i, j) = 1/latency(i, j)^alpha`` uses
    the end-to-end latency matrix — which folds in transport tiers and
    contention models — rather than the raw Euclidean distance the
    paper's Tofu strategy uses.  On a pure hop-latency model the two
    coincide up to monotone reweighting; they diverge when transports
    are hierarchical.
    """

    needs_placement = True

    def __init__(self, alpha: float = 1.0):
        self.alpha = _check_alpha(alpha)
        self.name = Registry.bracket_name("latskew", self.alpha)

    def probabilities(self, rank: int, placement: Placement) -> np.ndarray:
        lat = placement.latency.row(rank)
        # Normalise so the nearest victim has unit weight, mirroring
        # the paper's w=1 convention for zero-distance ranks.
        others = lat[np.arange(len(lat)) != rank]
        scale = others.min() if others.size else 1.0
        return skewed_probabilities(rank, lat / max(scale, 1e-30), self.alpha)

    def make(self, rank, nranks, placement=None, seed=0):
        self._check(rank, nranks, placement)
        assert placement is not None
        return _SkewedState(
            lambda: np.cumsum(self.probabilities(rank, placement)),
            _rank_rng(seed, rank),
        )


# ----------------------------------------------------------------------
# Related-work comparators
# ----------------------------------------------------------------------


class _HierarchicalState(VictimSelector):
    def __init__(
        self,
        near: np.ndarray,
        far: np.ndarray,
        p_near: float,
        rng: np.random.Generator,
    ):
        self._near = near
        self._far = far
        self._p_near = p_near
        self._rng = rng

    def next_victim(self) -> int:
        pick_near = self._near.size and (
            not self._far.size or self._rng.random() < self._p_near
        )
        pool = self._near if pick_near else self._far
        return int(pool[self._rng.integers(0, pool.size)])


class HierarchicalSelector(SelectorFactory):
    """Two-level near/far scheme (hierarchical work stealing).

    With probability ``p_near`` steal uniformly among the *near* ranks
    (latency at or below the caller's median), otherwise uniformly
    among the far ones.  This is the fixed-policy hierarchy of
    Min/Iancu/Yelick and Quintin/Wagner, to contrast with the paper's
    smooth distance weighting.
    """

    name = "hierarchical"
    needs_placement = True

    def __init__(self, p_near: float = 0.9):
        if not 0.0 <= p_near <= 1.0:
            raise ConfigurationError(f"p_near must be in [0, 1], got {p_near}")
        self.p_near = float(p_near)
        self.name = Registry.bracket_name("hier", self.p_near)

    def make(self, rank, nranks, placement=None, seed=0):
        self._check(rank, nranks, placement)
        assert placement is not None
        lat = placement.latency.row(rank)
        others = np.delete(np.arange(nranks), rank)
        cut = float(np.median(lat[others]))
        near = others[lat[others] <= cut]
        far = others[lat[others] > cut]
        return _HierarchicalState(near, far, self.p_near, _rank_rng(seed, rank))


class _LastVictimState(VictimSelector):
    def __init__(self, uniform: _UniformState):
        self._uniform = uniform
        self._sticky: int | None = None

    def next_victim(self) -> int:
        if self._sticky is not None:
            victim, self._sticky = self._sticky, None
            return victim
        return self._uniform.next_victim()

    def notify(self, victim: int, success: bool) -> None:
        # notify() must tolerate arbitrary victims (lifeline pushes
        # report ranks the selector never drew); only a valid *other*
        # rank may become the sticky target.
        if success and 0 <= victim < self._uniform._nranks and (
            victim != self._uniform._rank
        ):
            self._sticky = victim
        else:
            self._sticky = None


class LastVictimSelector(SelectorFactory):
    """Retry the last successful victim first, else uniform random."""

    name = "lastvictim"

    def make(self, rank, nranks, placement=None, seed=0):
        self._check(rank, nranks, placement)
        return _LastVictimState(_UniformState(rank, nranks, _rank_rng(seed, rank)))


_SELECTORS = registry_for("selector")
_SELECTORS.register("reference", RoundRobinSelector, "round_robin", "rr")
_SELECTORS.register("rand", UniformRandomSelector, "random", "uniform")
_SELECTORS.register("tofu", DistanceSkewedSelector, "distance", "skewed")
_SELECTORS.register("hierarchical", HierarchicalSelector)
_SELECTORS.register("lastvictim", LastVictimSelector)
_SELECTORS.register_bracket("skew", "alpha", PowerSkewedSelector)
_SELECTORS.register_bracket("hier", "p_near", HierarchicalSelector)
_SELECTORS.register_bracket("latskew", "alpha", LatencySkewedSelector)


def selector_by_name(name: str) -> SelectorFactory:
    """Instantiate a selector factory from a config string.

    Accepts the registered aliases plus ``"skew[<alpha>]"``,
    ``"hier[<p>]"`` and ``"latskew[<alpha>]"`` parameterised forms;
    thin wrapper over ``registry.resolve("selector", name)``.
    """
    return _SELECTORS.resolve(name)  # type: ignore[return-value]
