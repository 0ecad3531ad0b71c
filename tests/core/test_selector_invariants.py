"""Property-style invariants over *every* registered victim selector.

``tests/core/test_victim.py`` checks each selector family in detail;
this module sweeps the whole registry (canonical names plus one
concrete instance per pattern template) across rank/seed combinations
and pins the two invariants every selector must satisfy:

* ``next_victim()`` is always in ``[0, nranks)``;
* a rank never selects itself.

It also carries the regression test for the skewed-sampler edge case:
a uniform draw arbitrarily close to 1.0 must still map to a valid
victim even when float rounding leaves the cumulative distribution's
last edge below the draw.
"""

import numpy as np
import pytest

from repro.core import registry
from repro.core.registry import available
from repro.core.victim import (
    _DRAW_BLOCK,
    _HierarchicalState,
    _SkewedState,
    _rank_rng,
    skewed_probabilities,
)
from repro.errors import ConfigurationError
from repro.net.allocation import build_placement

#: Concrete instantiations for the registry's pattern templates
#: (``skew[<alpha>]`` etc. are templates, not resolvable names).
_PATTERN_INSTANCES = {
    "skew[<alpha>]": "skew[2]",
    "hier[<p_near>]": "hier[0.75]",
    "latskew[<alpha>]": "latskew[1.5]",
    "adapt-eps[<eps>]": "adapt-eps[0.25]",
    "adapt-sr[<decay>]": "adapt-sr[0.8]",
    "adapt-backoff[<fails>]": "adapt-backoff[3]",
}


def _all_selector_names() -> list[str]:
    names = []
    for name in available("selector"):
        names.append(_PATTERN_INSTANCES.get(name, name))
    return names


_NRANKS = (2, 5, 16)
_SEEDS = (0, 1, 12345)


@pytest.mark.parametrize("name", _all_selector_names())
class TestEverySelector:
    @pytest.mark.parametrize("nranks", _NRANKS)
    @pytest.mark.parametrize("seed", _SEEDS)
    def test_victims_valid_and_never_self(self, name, nranks, seed):
        factory = registry.resolve("selector", name)
        placement = build_placement(nranks, registry.resolve("allocation", "1/N"))
        for rank in (0, nranks - 1):
            selector = factory.make(rank, nranks, placement, seed=seed)
            for _ in range(300):
                v = selector.next_victim()
                assert 0 <= v < nranks, f"{name}: victim {v} out of range"
                assert v != rank, f"{name}: rank {rank} selected itself"

    def test_survives_notify_feedback(self, name):
        """Invariants hold when success/failure feedback is interleaved."""
        nranks = 8
        factory = registry.resolve("selector", name)
        placement = build_placement(nranks, registry.resolve("allocation", "1/N"))
        selector = factory.make(3, nranks, placement, seed=7)
        for i in range(200):
            v = selector.next_victim()
            assert 0 <= v < nranks and v != 3
            selector.notify(v, success=(i % 3 == 0))


class TestSkewedProbabilities:
    @pytest.mark.parametrize("nranks", _NRANKS)
    @pytest.mark.parametrize("alpha", (0.0, 1.0, 2.5))
    def test_shape_and_normalisation(self, nranks, alpha):
        placement = build_placement(nranks, registry.resolve("allocation", "1/N"))
        for rank in range(nranks):
            p = skewed_probabilities(
                rank, placement.euclidean.row(rank), alpha=alpha
            )
            assert p.shape == (nranks,)
            assert p[rank] == 0.0
            assert np.all(p >= 0.0)
            assert p.sum() == pytest.approx(1.0)


class TestSkewedEdgeDraw:
    """Regression: a draw at ``1 - 2**-53`` (the largest double below
    1.0) must not index past the cumulative array when rounding has
    left ``cum[-1]`` slightly under the draw."""

    class _PinnedRng:
        def __init__(self, value: float):
            self._value = value

        def random(self, n: int) -> np.ndarray:
            return np.full(n, self._value)

    def test_max_draw_maps_to_last_victim(self):
        # Weights chosen so the float cumsum tops out below 1 - 2**-53.
        weights = np.full(7, 1.0 / 7.0)
        cum = np.cumsum(weights)
        draw = 1.0 - 2.0**-53
        assert cum[-1] < draw  # the hazard this test pins
        state = _SkewedState(lambda: cum, self._PinnedRng(draw))
        for _ in range(10):
            v = state.next_victim()
            assert 0 <= v < 7

    def test_low_and_mid_draws_unaffected(self):
        cum = np.cumsum(np.full(4, 0.25))
        assert _SkewedState(lambda: cum, self._PinnedRng(0.0)).next_victim() == 0
        assert _SkewedState(lambda: cum, self._PinnedRng(0.6)).next_victim() == 2

    @pytest.mark.parametrize(
        "allocation, nranks", [("1/N", 4096), ("8RR", 256)]
    )
    def test_last_rank_never_draws_itself(self, allocation, nranks):
        # The last rank's own zero weight is the last edge, equal to the
        # one before it; rounding leaves both below the draw.
        placement = build_placement(nranks, allocation)
        tofu = registry.resolve("selector", "tofu")
        rank = nranks - 1
        draw = 1.0 - 2.0**-53
        assert np.cumsum(tofu.probabilities(rank, placement))[-2] < draw
        state = _SkewedState(
            lambda: np.cumsum(tofu.probabilities(rank, placement)),
            self._PinnedRng(draw),
        )
        v = state.next_victim()
        assert 0 <= v < nranks and v != rank
        if nranks <= 256:
            # The job-wide build, refilled from its weight table.
            bound = tofu.make_all(nranks, placement)[rank]
            bound._rng = self._PinnedRng(draw)
            assert rank not in bound._draw_block().tolist()

    def test_degenerate_distribution_raises_at_construction(self):
        def build():
            return np.cumsum(skewed_probabilities(0, np.array([0.0])))

        with pytest.raises(ConfigurationError, match="degenerate"):
            _SkewedState(build, self._PinnedRng(0.5))


class TestSkewedBlocks:
    """A skewed state keeps one block of drawn victims and rebuilds its
    cumulative vector per block; the victims must be what one
    ``searchsorted`` of the pinned vector over the rank's whole
    ``random()`` stream gives, across refills."""

    @pytest.mark.parametrize("nranks", [33, 256, 1000])
    @pytest.mark.parametrize(
        "name", ["tofu", "skew[0]", "skew[2.5]", "latskew[1.5]"]
    )
    def test_draws_equal_one_search_over_the_stream(self, name, nranks):
        placement = build_placement(nranks, registry.resolve("allocation", "1/N"))
        factory = registry.resolve("selector", name)
        k = 3 * _DRAW_BLOCK + 17  # three refills after the first block
        for rank in (0, nranks // 2, nranks - 1):
            cum = np.cumsum(factory.probabilities(rank, placement))
            cum[cum == cum[-1]] = 1.0
            expected = np.searchsorted(
                cum, _rank_rng(7, rank).random(k), side="right"
            )
            state = factory.make(rank, nranks, placement, seed=7)
            assert [state.next_victim() for _ in range(k)] == expected.tolist()
            # Nothing N-sized in float64 stays on the state.
            assert state._buf.nbytes <= 2 * _DRAW_BLOCK
            assert not any(
                isinstance(v, np.ndarray) for v in vars(state).values()
            )


class TestHierarchicalPools:
    @pytest.mark.parametrize("nranks", [33, 256])
    def test_draws_equal_the_list_built_pools(self, nranks):
        # ``make`` builds the other-ranks array with ``np.delete``; the
        # list comprehension it replaced is the reference.
        placement = build_placement(nranks, registry.resolve("allocation", "1/N"))
        factory = registry.resolve("selector", "hier[0.9]")
        for rank in (0, nranks // 3, nranks - 1):
            lat = placement.latency.row(rank)
            others = np.array([r for r in range(nranks) if r != rank])
            cut = float(np.median(lat[others]))
            old = _HierarchicalState(
                others[lat[others] <= cut],
                others[lat[others] > cut],
                0.9,
                _rank_rng(3, rank),
            )
            new = factory.make(rank, nranks, placement, seed=3)
            assert new._near.dtype == old._near.dtype
            assert np.array_equal(new._near, old._near)
            assert np.array_equal(new._far, old._far)
            assert [new.next_victim() for _ in range(400)] == [
                old.next_victim() for _ in range(400)
            ]
