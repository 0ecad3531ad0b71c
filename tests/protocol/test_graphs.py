"""Property tests of the lifeline-graph builders.

Every builder must hold four invariants for *every* rank count —
including non-powers-of-two, where the original hard-coded hypercube
scheme was never exercised: no self-edges, no duplicates, every
partner in range, at most ``count`` partners, and deterministic
output.  ``ring`` additionally guarantees a symmetric relation;
``regtree`` becomes symmetric once ``count >= 4`` admits the parent,
both children and the root ring.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import registry
from repro.protocol.graphs import (
    SYMMETRIC_GRAPHS,
    hypercube_partners,
    regtree_partners,
    ring_partners,
)
from repro.protocol.regions import RegionMap

BUILDERS = {
    "hypercube": hypercube_partners,
    "ring": ring_partners,
    "regtree": regtree_partners,
}

# Deliberately odd sizes: primes, powers of two +- 1, tiny jobs.
nranks_st = st.sampled_from([1, 2, 3, 5, 7, 8, 13, 16, 17, 31, 32, 40, 64])
counts = st.integers(min_value=0, max_value=8)


def _region_map(nranks: int, nregions: int) -> RegionMap | None:
    if nregions <= 1 or nregions > nranks:
        return None
    step = nranks // nregions
    bounds = [i * step for i in range(nregions)] + [nranks]
    return RegionMap(bounds, aligned=False)


@pytest.mark.parametrize("name", sorted(BUILDERS))
@settings(max_examples=60, deadline=None)
@given(nranks=nranks_st, count=counts, data=st.data())
def test_builder_invariants(name, nranks, count, data):
    builder = BUILDERS[name]
    regions = None
    if name == "regtree":
        regions = _region_map(
            nranks, data.draw(st.integers(1, 4), label="nregions")
        )
    for rank in range(nranks):
        partners = builder(rank, nranks, count, regions=regions)
        assert rank not in partners, f"{name}: self-edge at rank {rank}"
        assert len(partners) == len(set(partners)), f"{name}: duplicates"
        assert all(0 <= p < nranks for p in partners)
        assert len(partners) <= count
        # Deterministic: a second build is byte-for-byte the same.
        assert partners == builder(rank, nranks, count, regions=regions)


@settings(max_examples=40, deadline=None)
@given(nranks=nranks_st, count=counts)
def test_ring_is_symmetric(nranks, count):
    lists = {r: set(ring_partners(r, nranks, count)) for r in range(nranks)}
    for a in range(nranks):
        for b in lists[a]:
            assert a in lists[b], f"ring: {a} lists {b} but not vice versa"


@settings(max_examples=40, deadline=None)
@given(
    nranks=nranks_st,
    count=st.integers(min_value=4, max_value=8),
    nregions=st.integers(min_value=1, max_value=4),
)
def test_regtree_symmetric_with_full_budget(nranks, count, nregions):
    regions = _region_map(nranks, nregions)
    lists = {
        r: set(regtree_partners(r, nranks, count, regions=regions))
        for r in range(nranks)
    }
    for a in range(nranks):
        for b in lists[a]:
            assert a in lists[b], f"regtree: {a} lists {b} but not back"


@settings(max_examples=40, deadline=None)
@given(nranks=nranks_st)
def test_hypercube_connects_the_job(nranks):
    """With the full log2 budget every rank reaches every other —
    the percolation property the lifeline scheme relies on."""
    count = max(1, nranks.bit_length())
    reached = {0}
    frontier = [0]
    while frontier:
        r = frontier.pop()
        for p in hypercube_partners(r, nranks, count):
            if p not in reached:
                reached.add(p)
                frontier.append(p)
    assert reached == set(range(nranks))


@settings(max_examples=60, deadline=None)
@given(nranks=nranks_st, count=counts)
def test_hypercube_partners_invariants(nranks, count):
    """Own rank excluded, no duplicates, every partner in range — on
    non-power-of-two rank counts too."""
    for rank in range(nranks):
        partners = hypercube_partners(rank, nranks, count)
        assert rank not in partners
        assert len(partners) == len(set(partners))
        assert all(0 <= p < nranks for p in partners)


def test_registry_resolves_every_builder():
    for name, fn in BUILDERS.items():
        assert registry.resolve("lifeline_graph", name) is fn


def test_symmetric_graphs_constant_is_honest():
    # Anything the constant claims symmetric must pass the ring check
    # shape; currently that is exactly the ring.
    assert SYMMETRIC_GRAPHS == frozenset({"ring"})


def test_single_rank_has_no_partners():
    for name, fn in BUILDERS.items():
        assert fn(0, 1, 4) == [], name
