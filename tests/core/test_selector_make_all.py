"""``SelectorFactory.make_all`` binds what ``make`` binds, rank by rank.

The engine and the oracle bind a job's selectors with one ``make_all``;
the skewed selectors build it from one weight table per placement and
cumulative rows a block at a time, while ``make`` keeps the per-rank
reference path.  Each rank's selectors are held equal here on the
first block (bytes and dtype), the victims after a forced refill and
``draws(k)`` across refills, over both topologies, the paper's three
allocations and rank counts on both sides of the uint8/uint16 victim
boundary.

``--hypothesis-profile deep`` runs them at ten times the budget.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import registry
from repro.core.victim import _DRAW_BLOCK
from repro.errors import ConfigurationError
from repro.net.allocation import Placement, build_placement
from repro.net.latency import UniformLatency
from repro.net.pairwise import PairwiseMetric
from repro.net.topology import FlatTopology

SELECTORS = ["tofu", "skew[0]", "skew[2.5]", "latskew[1.5]"]
NRANKS = [2, 3, 33, 64, 65, 256, 257, 1000]

_PLACEMENTS: dict[tuple, Placement] = {}


def _placement(topology: str, allocation: str, nranks: int) -> Placement:
    key = (topology, allocation, nranks)
    if key not in _PLACEMENTS:
        _PLACEMENTS[key] = (
            build_placement(nranks, allocation)
            if topology == "tofu"
            else build_placement(
                nranks,
                allocation,
                latency_model=UniformLatency(),
                topology_factory="flat",
            )
        )
    return _PLACEMENTS[key]


def _same_block(a, b) -> bool:
    return a._buf.format == b._buf.format and bytes(a._buf) == bytes(b._buf)


@settings(deadline=None)
@given(
    name=st.sampled_from(SELECTORS),
    topology=st.sampled_from(["tofu", "flat"]),
    allocation=st.sampled_from(["1/N", "8RR", "8G"]),
    nranks=st.sampled_from(NRANKS),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_make_all_is_make_per_rank(name, topology, allocation, nranks, seed, data):
    placement = _placement(topology, allocation, nranks)
    factory = registry.resolve("selector", name)
    bound = factory.make_all(nranks, placement, seed)
    assert len(bound) == nranks
    ranks = {0, nranks - 1, data.draw(st.integers(0, nranks - 1), label="rank")}
    k = data.draw(st.integers(0, 2 * _DRAW_BLOCK + 5), label="k")
    for rank in sorted(ranks):
        block = bound[rank]
        scalar = factory.make(rank, nranks, placement, seed=seed)
        # The first block, drawn at construction.
        assert _same_block(block, scalar)
        # A forced refill: both rebuild their rank's row and draw anew.
        for state in (block, scalar):
            state._pos = len(state._buf)
        assert [block.next_victim() for _ in range(3)] == [
            scalar.next_victim() for _ in range(3)
        ]
        assert _same_block(block, scalar)
        # ``draws`` across refills, and the state it leaves.
        assert block.draws(k).tolist() == scalar.draws(k).tolist()
        assert block.next_victim() == scalar.next_victim()


@pytest.mark.parametrize("name", ["tofu", "skew[2]"])
def test_no_cumulative_vector_is_kept(name):
    placement = _placement("tofu", "1/N", 257)
    for state in registry.resolve("selector", name).make_all(257, placement, 1):
        assert state._buf.nbytes <= 2 * _DRAW_BLOCK
        assert not any(isinstance(v, np.ndarray) for v in vars(state).values())


@pytest.mark.parametrize("name", ["reference", "rand", "hier[0.9]", "adapt-sr[0.9]"])
def test_the_default_binds_make_per_rank(name):
    placement = _placement("tofu", "8RR", 33)
    factory = registry.resolve("selector", name)
    bound = factory.make_all(33, placement, 5)
    for rank, state in enumerate(bound):
        scalar = factory.make(rank, 33, placement, seed=5)
        assert [state.next_victim() for _ in range(40)] == [
            scalar.next_victim() for _ in range(40)
        ]


def test_bad_jobs_are_rejected():
    tofu = registry.resolve("selector", "tofu")
    with pytest.raises(ConfigurationError, match=">= 2 ranks"):
        tofu.make_all(1, _placement("tofu", "1/N", 2))
    with pytest.raises(ConfigurationError, match="requires a Placement"):
        tofu.make_all(4)
    with pytest.raises(ConfigurationError, match="placement has 3 ranks"):
        tofu.make_all(4, _placement("tofu", "1/N", 3))


def test_a_degenerate_distribution_raises_at_construction():
    # Three ranks two squared units apart: at alpha = 5000 every weight
    # underflows to 0, so the first block cannot be drawn.
    n = 3

    def squares(i):
        return np.where(np.arange(n) == np.arange(n)[i, None], 0, 2)

    values = np.sqrt(np.arange(3))
    placement = Placement(
        nranks=n,
        rank_nodes=np.arange(n),
        topology=FlatTopology(n),
        latency=PairwiseMetric(n, lambda i: np.ones(n), name="latency"),
        euclidean=PairwiseMetric(
            n,
            lambda i: np.sqrt(squares(i)),
            name="euclidean",
            codes=(squares, values),
        ),
    )
    skew = registry.resolve("selector", "skew[5000]")
    with np.errstate(over="ignore"):
        with pytest.raises(ConfigurationError, match="degenerate"):
            skew.make(0, n, placement)
        with pytest.raises(ConfigurationError, match="degenerate"):
            skew.make_all(n, placement)
