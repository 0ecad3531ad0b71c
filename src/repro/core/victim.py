"""Victim selection strategies for distributed work stealing.

A *selector factory* (:class:`SelectorFactory`) describes a strategy;
binding it to a rank (:meth:`SelectorFactory.make`) yields the
per-rank :class:`VictimSelector` the scheduler queries whenever it
needs someone to steal from, and :meth:`SelectorFactory.make_all`
binds every rank of a job at once (what the engine calls).

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
from array import array

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
    "skewed_probabilities",
]


class VictimSelector(ABC):
    """Per-rank selection state; produced by a :class:`SelectorFactory`."""

    @abstractmethod
    def next_victim(self) -> int:
        """Return the next victim rank to try (never the caller's own)."""

    def draws(self, k: int) -> np.ndarray:
        """The next ``k`` values of :meth:`next_victim`, as one array.

        The state moves exactly as ``k`` calls would move it.  Block
        and ring selectors read it off their state; this default makes
        the calls.
        """
        draw = self.next_victim
        return np.fromiter((draw() for _ in range(k)), np.int64, k)

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

    def make_all(
        self,
        nranks: int,
        placement: Placement | None = None,
        seed: int = 0,
    ) -> list[VictimSelector]:
        """Bind the strategy to every rank of the job, in rank order.

        Each selector draws what :meth:`make` would bind for its rank;
        a strategy whose ranks share work overrides this to do that
        work once per job.
        """
        return [self.make(rank, nranks, placement, seed) for rank in range(nranks)]

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


#: Raw 64-bit outputs a :class:`_DrawStream` reads per refill.
_RAW_BLOCK = 64
_U32 = 0xFFFFFFFF


class _DrawStream:
    """``Generator.random()`` and ``Generator.integers(0, n)``, one
    scalar at a time, without a numpy call per draw.

    A numpy scalar draw costs about 2 us of call overhead; this stream
    reads the PCG64 bit generator's raw output ``_RAW_BLOCK`` words at
    a time (``random_raw``, copied into an ``array('Q')``: as fast to
    index as a ``memoryview`` of it, without the 384 bytes a view and
    numpy's buffer export hold per stream) and applies numpy's own
    transforms in Python, so the values, and the order in which they
    consume the bit stream, are the Generator's:

    * ``random()`` is ``next_double``: ``(u64 >> 11) * 2**-53``;
    * ``integers(n)`` is ``random_bounded_uint64_fill`` for one value
      of range ``n - 1``: no draw when ``n == 1``, one ``next_uint32``
      when ``n == 2**32``, Lemire's rejection on ``next_uint32``
      otherwise.  ``next_uint32`` returns the low half of a fresh word
      and keeps the high half for the next call (PCG64's
      ``has_uint32``/``uinteger``, taken from ``bit_generator.state``
      here and carried across ``random()`` calls as numpy does).

    The stream owns the generator: the raw words it has read ahead are
    gone from the generator's own stream.  ``tests/core/
    test_draw_stream.py`` pins it to ``Generator``'s scalar calls.
    """

    __slots__ = ("_raw", "_buf", "_pos", "_half")

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        state = bitgen.state
        if state["bit_generator"] != "PCG64":
            raise TypeError(
                f"a draw stream reads PCG64, not {state['bit_generator']}"
            )
        self._raw = bitgen.random_raw
        self._buf = array("Q")
        self._pos = 0
        #: The kept high half-word, or None (``has_uint32 == 0``).
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _refill(self) -> array:
        buf = self._buf = array("Q", self._raw(_RAW_BLOCK).tobytes())
        return buf

    def random(self) -> float:
        """``Generator.random()``: a float in ``[0, 1)``."""
        pos = self._pos
        buf = self._buf
        if pos >= len(buf):
            buf, pos = self._refill(), 0
        self._pos = pos + 1
        return (buf[pos] >> 11) * 2.0**-53

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        pos = self._pos
        buf = self._buf
        if pos >= len(buf):
            buf, pos = self._refill(), 0
        self._pos = pos + 1
        word = buf[pos]
        self._half = word >> 32
        return word & _U32

    def integers(self, n: int) -> int:
        """``Generator.integers(0, n)`` for ``1 <= n <= 2**32``."""
        if n == 1:
            return 0
        m = self._next32() * n
        if n > _U32:
            return m >> 32
        leftover = m & _U32
        if leftover < n:
            threshold = (_U32 + 1 - n) % n
            while leftover < threshold:
                m = self._next32() * n
                leftover = m & _U32
        return m >> 32


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

    def draws(self, k: int) -> np.ndarray:
        # The other ranks by offset past our own, 0 .. N-2, walked
        # cyclically from ``_next``'s; our own rank's offset, N-1, wraps
        # to 0 as ``next_victim`` skips it.
        n, rank = self._nranks, self._rank
        start = (self._next - rank - 1) % n
        victims = (rank + 1 + (start + np.arange(k)) % (n - 1)) % n
        if k:
            self._next = (int(victims[-1]) + 1) % n
        return victims


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
#: overhead (and, for skewed draws, one build of the cumulative
#: vector per block); the stream is identical to drawing one at a
#: time.  A block is read through a ``memoryview``, which indexes to a
#: Python int without building a numpy scalar (``.tolist()`` would too,
#: at 30 MiB of int objects for 4096 ranks).
_DRAW_BLOCK = 512
_NO_DRAWS = memoryview(b"")


class _BlockState(VictimSelector):
    """A selector that holds one block of draws, ``_buf[_pos:]``, and
    draws the next (``_draw_block``) when it is used up."""

    _buf: memoryview
    _pos: int

    @abstractmethod
    def _draw_block(self) -> memoryview:
        """The next ``_DRAW_BLOCK`` raw draws."""

    def next_victim(self) -> int:
        pos = self._pos
        buf = self._buf
        if pos >= len(buf):
            buf = self._buf = self._draw_block()
            pos = 0
        self._pos = pos + 1
        return buf[pos]

    def draws(self, k: int) -> np.ndarray:
        """What is left of the held block, then whole new blocks,
        each drawn where ``next_victim`` would draw it."""
        pos, buf = self._pos, self._buf
        parts = []
        while pos + k > len(buf):
            parts.append(np.asarray(buf[pos:]))
            k -= len(buf) - pos
            buf, pos = self._draw_block(), 0
        self._buf, self._pos = buf, pos + k
        parts.append(np.asarray(buf[pos : pos + k]))
        return np.concatenate(parts) if len(parts) > 1 else parts[0]


class _UniformState(_BlockState):
    def __init__(self, rank: int, nranks: int, rng: np.random.Generator):
        self._rank = rank
        self._nranks = nranks
        self._rng = rng
        self._buf = _NO_DRAWS
        self._pos = 0

    def _draw_block(self) -> memoryview:
        return memoryview(
            self._rng.integers(0, self._nranks - 1, size=_DRAW_BLOCK)
        )

    def next_victim(self) -> int:
        # Draw over nranks-1 victims and shift past our own rank: exact
        # uniform over the others with a single draw.
        pos = self._pos
        buf = self._buf
        if pos >= len(buf):
            buf = self._buf = self._draw_block()
            pos = 0
        self._pos = pos + 1
        v = buf[pos]
        return v + 1 if v >= self._rank else v

    def draws(self, k: int) -> np.ndarray:
        v = super().draws(k)
        return v + (v >= self._rank)


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
    w = _skew_weights(np.asarray(euclidean_row, dtype=np.float64), alpha)
    w[rank] = 0.0
    return _normalise(w)


def _skew_weights(e: np.ndarray, alpha: float) -> np.ndarray:
    """``1 / e^alpha``, and ``1`` where ``e == 0``."""
    w = np.ones_like(e)
    # Divided only where ``e > 0``: a zero distance keeps weight 1 and
    # never divides by zero.
    np.divide(1.0, np.power(e, alpha), out=w, where=e > 0.0)
    return w


def _normalise(w: np.ndarray) -> np.ndarray:
    """``w`` over its sum along the last axis, in place (a row, or a
    block of rows: a block's row sums are its rows' own sums)."""
    total = w.sum(axis=-1, keepdims=True)
    for t in total.ravel().tolist():
        if not 0.0 < t < math.inf:
            raise ConfigurationError(
                f"degenerate victim distribution (weights sum to {t})"
            )
    w /= total
    return w


def _pin(cumulative: np.ndarray) -> np.ndarray:
    """Set the trailing edges equal to the final sum to 1.0, in place.

    Float rounding can leave the final sum a few ulps below 1.0, and
    ``searchsorted(side="right")`` would map a draw above it past the
    last victim: to ``len`` (out of range), or, when the drawing rank
    is the last one, to that rank's zero-weight edge (itself).  With
    every edge equal to the final sum pinned (the vector never
    decreases, so they are a suffix), a draw in ``[0, 1)`` lands on a
    rank of positive weight.
    """
    cumulative[np.searchsorted(cumulative, cumulative[-1]) :] = 1.0
    return cumulative


def _search(cumulative: np.ndarray, rng: np.random.Generator) -> memoryview:
    """One block of victims from a pinned cumulative vector, in the
    narrowest unsigned dtype."""
    victims = np.searchsorted(cumulative, rng.random(_DRAW_BLOCK), side="right")
    return memoryview(victims.astype(np.min_scalar_type(len(cumulative) - 1)))


def _check_alpha(alpha: float) -> float:
    """``alpha`` as a float, or :class:`ConfigurationError` unless it is
    finite and >= 0 (a NaN weight would draw victim 0 forever)."""
    if not 0 <= alpha < math.inf:
        raise ConfigurationError(f"alpha must be finite and >= 0, got {alpha}")
    return float(alpha)


class _SkewedState(_BlockState):
    """Draws from a cumulative distribution it does not keep.

    A cumulative vector is N float64 per rank — N x N per job — and a
    draw reads one edge of it.  So the state holds ``build``, the
    closure that computes the vector, and each refill builds it, draws
    one block of victims and drops it; what stays is the block, in the
    narrowest unsigned dtype.  A state bound by
    :meth:`PowerSkewedSelector.make_all` gets its first block from the
    job's block build, and its ``build`` looks the rank's row up in the
    job's one weight table (one entry per squared distance); a refill
    rebuilds that one row.  Otherwise the first block is drawn here.
    Either way it is drawn at construction, so a degenerate
    distribution raises there.  ``rng.random`` streams do not depend on
    the block size.
    """

    def __init__(self, build, rng: np.random.Generator, block=None):
        self._build = build
        self._rng = rng
        self._buf = self._draw_block() if block is None else block
        self._pos = 0

    def cumulative(self) -> np.ndarray:
        """The pinned vector draws are searched in (rebuilt on every
        call; :func:`_pin`)."""
        return _pin(np.array(self._build(), dtype=np.float64))

    def _draw_block(self) -> memoryview:
        return _search(self.cumulative(), self._rng)


#: Ranks whose cumulative rows :meth:`PowerSkewedSelector.make_all`
#: builds at once: 16 rows of 4096 ranks are 512 KiB a block.  Set-up
#: time is flat from 8 to 64 rows; at 64, a second job in the process
#: peaked 4-6 MiB higher (the freed blocks stay in the heap).
_ROW_BLOCK = 16


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

    def make_all(self, nranks, placement=None, seed=0):
        """Every rank's selector, equal to :meth:`make`'s, in one pass.

        A weight depends on the integer squared distance alone, so the
        weights are one table per placement (each entry the same
        expression, evaluated once per value) and a rank's row is a
        lookup of its squared-distance row.  The rows come
        ``_ROW_BLOCK`` at a time from the placement's separable
        per-dimension tables, each block normalised and summed
        cumulatively at once; a block's rows are its ranks' own rows bit
        for bit.  Each rank still draws its first block from its own
        generator.
        """
        self._check(0, nranks, placement)
        assert placement is not None
        squares, values = placement.euclidean.codes
        table = _skew_weights(np.asarray(values, dtype=np.float64), self.alpha)

        def cumsums(start: int, stop: int) -> np.ndarray:
            w = table.take(squares(slice(start, stop)))
            w[np.arange(stop - start), np.arange(start, stop)] = 0.0
            return np.cumsum(_normalise(w), axis=1, out=w)

        def refill(rank: int):
            def build() -> np.ndarray:
                w = table.take(squares(rank))
                w[rank] = 0.0
                return np.cumsum(_normalise(w))

            return build

        states = []
        for start in range(0, nranks, _ROW_BLOCK):
            stop = min(start + _ROW_BLOCK, nranks)
            block = cumsums(start, stop)
            for rank in range(start, stop):
                rng = _rank_rng(seed, rank)
                first = _search(_pin(block[rank - start]), rng)
                states.append(_SkewedState(refill(rank), rng, first))
        return states


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
    """``rng.random() < p_near`` picks the pool (when both have ranks),
    ``rng.integers(0, len(pool))`` the rank in it, both read from a
    :class:`_DrawStream`."""

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
        self._stream = _DrawStream(rng)

    def next_victim(self) -> int:
        near, far, stream = self._near, self._far, self._stream
        pick_near = len(near) and (
            not len(far) or stream.random() < self._p_near
        )
        pool = near if pick_near else far
        return pool.item(stream.integers(len(pool)))


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
_SELECTORS.register("reference", RoundRobinSelector)
_SELECTORS.register("rand", UniformRandomSelector)
_SELECTORS.register("tofu", DistanceSkewedSelector)
_SELECTORS.register("hierarchical", HierarchicalSelector)
_SELECTORS.register("lastvictim", LastVictimSelector)
_SELECTORS.register_bracket("skew", "alpha", PowerSkewedSelector)
_SELECTORS.register_bracket("hier", "p_near", HierarchicalSelector)
_SELECTORS.register_bracket("latskew", "alpha", LatencySkewedSelector)
