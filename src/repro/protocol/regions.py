"""Locality regions for localized work stealing.

Suksompong, Leiserson & Schardl ("On the Efficiency of Localized Work
Stealing", arXiv:1804.04773) analyse the regime where a processor
first tries to *steal back* work owned by its own locality region and
only then escalates to remote victims.  :class:`RegionMap` is the
repro's geometry for that discipline: the rank space is cut into
contiguous blocks aligned with the allocation's node blocks
(:func:`~repro.net.allocation.aligned_block_bounds`), so intra-region
steals are intra-node-block —
the cheap traffic class of the paper's Tofu hierarchy.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.errors import ConfigurationError
from repro.net.allocation import aligned_block_bounds

__all__ = ["RegionMap"]


class RegionMap:
    """Partition of the rank space into contiguous locality regions."""

    __slots__ = ("bounds", "nregions", "aligned")

    def __init__(self, bounds: list[int], aligned: bool = True):
        if len(bounds) < 2 or bounds[0] != 0:
            raise ConfigurationError(
                f"region bounds must start at 0, got {bounds!r}"
            )
        for a, b in zip(bounds, bounds[1:]):
            if b <= a:
                raise ConfigurationError(
                    f"region bounds must be strictly increasing, got {bounds!r}"
                )
        self.bounds = list(bounds)
        self.nregions = len(bounds) - 1
        self.aligned = aligned

    @classmethod
    def build(cls, nranks: int, nregions: int, rank_nodes) -> "RegionMap":
        """Cut ``nranks`` into ``nregions`` node-aligned blocks."""
        bounds, aligned = aligned_block_bounds(nranks, nregions, rank_nodes)
        return cls(bounds, aligned)

    @property
    def nranks(self) -> int:
        return self.bounds[-1]

    def region_of(self, rank: int) -> int:
        """Index of the region hosting ``rank``."""
        return bisect_right(self.bounds, rank) - 1

    def bounds_of(self, region: int) -> tuple[int, int]:
        """``(lo, hi)`` rank range of ``region``."""
        return self.bounds[region], self.bounds[region + 1]

    def peers(self, rank: int) -> list[int]:
        """Every other rank in ``rank``'s region, ascending."""
        lo, hi = self.bounds_of(self.region_of(rank))
        return [r for r in range(lo, hi) if r != rank]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RegionMap(nregions={self.nregions}, nranks={self.nranks}, "
            f"aligned={self.aligned})"
        )
