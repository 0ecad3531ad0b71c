"""Steal-amount policies: how many chunks a successful steal transfers.

The reference UTS steals exactly one chunk (:class:`StealOne`).  §IV-C
of the paper switches to stealing *half the victim's chunks*
(:class:`StealHalf`), citing the classic result that "stealing half
the work of the victim is an optimal strategy [...] stealing half the
work make it possible for a thief to be stolen himself as soon as it
retrieves work".  :class:`StealFraction` generalises both for the
ablation study.

The policy sees only the victim's *stealable* chunk count (all chunks
except the private working chunk) and returns how many to transfer;
the mechanics live in :class:`repro.uts.stack.ChunkedStack`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.core.registry import Registry, registry_for
from repro.errors import ConfigurationError

__all__ = [
    "StealPolicy",
    "StealOne",
    "StealHalf",
    "StealFraction",
    "policy_by_name",
]


class StealPolicy(ABC):
    """Decide how many chunks to transfer given the stealable count."""

    name: str = "abstract"

    @abstractmethod
    def chunks_to_steal(self, stealable: int) -> int:
        """Number of chunks to move; 0 iff ``stealable`` is 0.

        Must return a value in ``[0, stealable]``.
        """

    def chunks_for_request(self, stealable: int, escalated: bool = False) -> int:
        """Amount for one concrete request; ``escalated`` marks a thief
        that has been failing repeatedly (or a starving lifeline waiter).

        Static policies ignore the flag; adaptive policies
        (:class:`repro.select.adaptive.AdaptiveStealPolicy`) escalate.
        Policies must stay stateless here — one policy object is shared
        by every worker in a process.
        """
        return self.chunks_to_steal(stealable)

    def _check(self, stealable: int) -> None:
        if stealable < 0:
            raise ConfigurationError(f"stealable must be >= 0, got {stealable}")


class StealOne(StealPolicy):
    """Reference behaviour: a thief takes a single chunk."""

    name = "one"

    def chunks_to_steal(self, stealable: int) -> int:
        self._check(stealable)
        return min(1, stealable)


class StealHalf(StealPolicy):
    """Take half of the victim's stealable chunks (rounded up)."""

    name = "half"

    def chunks_to_steal(self, stealable: int) -> int:
        self._check(stealable)
        return math.ceil(stealable / 2)


class StealFraction(StealPolicy):
    """Take ``fraction`` of the stealable chunks (at least one).

    ``StealFraction(0.5)`` differs from :class:`StealHalf` only in
    rounding (down instead of up); small fractions approximate
    :class:`StealOne` on short stacks while still scaling on long
    ones.
    """

    def __init__(self, fraction: float):
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(
                f"fraction must be in (0, 1], got {fraction}"
            )
        self.fraction = float(fraction)
        self.name = Registry.bracket_name("frac", self.fraction)

    def chunks_to_steal(self, stealable: int) -> int:
        self._check(stealable)
        if stealable == 0:
            return 0
        return max(1, int(stealable * self.fraction))


_POLICIES = registry_for("steal_policy")
_POLICIES.register("one", StealOne)
_POLICIES.register("half", StealHalf)
_POLICIES.register_bracket("frac", "fraction", StealFraction)


def policy_by_name(name: str) -> StealPolicy:
    """Instantiate a steal policy from a config string.

    Thin wrapper over ``registry.resolve("steal_policy", name)``.
    """
    return _POLICIES.resolve(name)  # type: ignore[return-value]
