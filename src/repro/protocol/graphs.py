"""Lifeline graph builders (registry kind ``"lifeline_graph"``).

A lifeline graph assigns every rank a small set of *partner* ranks it
arms when quiescing (see :mod:`repro.protocol.core`).  The original scheme
hard-coded the cyclic hypercube of Saraswat et al.; the protocol layer
makes the graph a configuration axis so coverage/diameter trade-offs
can be measured:

``hypercube``
    Partners at power-of-two offsets ``(r + 2^i) mod N`` — ``O(log N)``
    diameter, the reference graph (and the backward-compatible
    default).
``ring``
    Nearest neighbours ``r ± 1, r ± 2, ...`` — symmetric by
    construction, minimal wiring, linear diameter.
``regtree``
    Binary tree *within* each locality region (regions from
    :class:`repro.protocol.regions.RegionMap`; one region covering the
    job when regions are off), region roots linked in a ring — work
    percolates within a region before crossing region boundaries.

Every builder returns partners in a deterministic order with the same
guarantees (pinned by the hypothesis suite in ``tests/protocol``): no
self-edges, no duplicates, every partner in ``range(nranks)``, at most
``count`` partners.  ``ring`` is additionally symmetric (``a`` lists
``b`` iff ``b`` lists ``a``); ``regtree`` is symmetric once ``count >=
4`` admits every tree/ring edge.
"""

from __future__ import annotations

from repro.core import registry

__all__ = [
    "hypercube_partners",
    "ring_partners",
    "regtree_partners",
    "SYMMETRIC_GRAPHS",
]

#: Graph names whose partner relation is symmetric (``regtree`` only
#: once ``count >= 4`` admits parent + both children + the root ring).
SYMMETRIC_GRAPHS = frozenset({"ring"})


def hypercube_partners(
    rank: int, nranks: int, count: int, regions=None
) -> list[int]:
    """Cyclic-hypercube lifeline graph: partners at power-of-two offsets.

    Rank ``r`` links to ``(r + 2^i) mod N`` for ``i = 0, 1, ...`` —
    the outgoing edges of a cyclic hypercube, at most ``count`` of
    them.  Every rank is reachable from every other in ``O(log N)``
    lifeline hops, the property the original paper relies on for
    work to percolate to starving corners.
    """
    partners: list[int] = []
    offset = 1
    while len(partners) < count and offset < nranks:
        partner = (rank + offset) % nranks
        if partner != rank and partner not in partners:
            partners.append(partner)
        offset <<= 1
    return partners


def ring_partners(
    rank: int, nranks: int, count: int, regions=None
) -> list[int]:
    """Nearest-neighbour ring: ``r ± 1, r ± 2, ...``, symmetric.

    Offsets are added in ``+o, -o`` pairs, so whenever ``a`` lists
    ``b`` the reverse offset sits at the adjacent slot of ``b``'s list
    — the relation is symmetric for every ``count``.
    """
    partners: list[int] = []
    offset = 1
    while len(partners) + 2 <= count and offset < nranks:
        for cand in ((rank + offset) % nranks, (rank - offset) % nranks):
            if cand != rank and cand not in partners:
                partners.append(cand)
        offset += 1
    return partners


def regtree_partners(
    rank: int, nranks: int, count: int, regions=None
) -> list[int]:
    """Binary tree within each region; region roots linked in a ring.

    Within region ``[lo, hi)`` the local index ``i = rank - lo`` gets
    parent ``lo + (i - 1) // 2`` and children ``lo + 2i + 1``,
    ``lo + 2i + 2``; each region root additionally links the next and
    previous region's root.  With no region map the whole job is one
    region (a plain binary tree rooted at rank 0).
    """
    if regions is not None:
        region = regions.region_of(rank)
        lo, hi = regions.bounds_of(region)
        roots = [regions.bounds_of(s)[0] for s in range(regions.nregions)]
    else:
        region, lo, hi = 0, 0, nranks
        roots = [0]
    i = rank - lo
    links: list[int] = []
    if i > 0:
        links.append(lo + (i - 1) // 2)
    else:
        nroots = len(roots)
        if nroots > 1:
            nxt = roots[(region + 1) % nroots]
            prv = roots[(region - 1) % nroots]
            links.append(nxt)
            if prv != nxt:
                links.append(prv)
    for child in (lo + 2 * i + 1, lo + 2 * i + 2):
        if child < hi:
            links.append(child)
    partners: list[int] = []
    for cand in links:
        if cand != rank and cand not in partners and len(partners) < count:
            partners.append(cand)
    return partners


_GRAPHS = registry.registry_for("lifeline_graph")
_GRAPHS.register("hypercube", lambda: hypercube_partners)
_GRAPHS.register("ring", lambda: ring_partners)
_GRAPHS.register("regtree", lambda: regtree_partners)
