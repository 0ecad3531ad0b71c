"""Worker with lifeline-based work distribution (Saraswat et al.).

Protocol on top of the reference steal loop:

1. An idle rank steals randomly (through whatever victim selector is
   configured) like the reference implementation.
2. After ``threshold`` consecutive *failed* steals, instead of spinning
   further it **quiesces**: it arms its *lifelines* — a fixed set of
   partner ranks drawn from a configurable lifeline graph
   (:mod:`repro.protocol.graphs`; the cyclic hypercube by default) —
   with a :class:`~repro.protocol.messages.LifelineRegister` message, and
   stops sending steal requests.
3. A partner that has stealable work at a poll boundary *pushes* a
   chunk allotment to each armed lifeline, waking it.
4. A woken rank disarms its remaining lifelines
   (:class:`~repro.protocol.messages.LifelineDeregister`) and resumes
   normal operation.

Quiescent ranks are idle for the termination ring, so the token
algorithm is unchanged; lifeline pushes are work messages and blacken
the sender like steal responses do.

The state machine itself lives in
:class:`repro.protocol.StealProtocol` — every branch above is the
``lifelines`` axis of the protocol layer.  :class:`LifelineWorker` is
a configuration shell kept for its constructor surface and the
``isinstance`` checks in the engine tests: it builds a lifeline-enabled
:class:`~repro.protocol.ProtocolPlan` and exposes the lifeline state
the tests read as views onto the protocol.
"""

from __future__ import annotations

from repro.protocol.core import ProtocolPlan
from repro.protocol.graphs import hypercube_partners
from repro.sim.worker import Worker

__all__ = ["lifeline_partners", "LifelineWorker"]


def lifeline_partners(rank: int, nranks: int, count: int) -> list[int]:
    """Cyclic-hypercube lifeline graph (the original hard-coded scheme).

    Kept as the historical name;
    :func:`repro.protocol.graphs.hypercube_partners` is the registered
    builder behind it.
    """
    return hypercube_partners(rank, nranks, count)


class LifelineWorker(Worker):
    """Reference worker + quiesce-and-wait lifelines."""

    __slots__ = ()

    def __init__(
        self,
        *args,
        lifeline_count: int = 2,
        lifeline_threshold: int = 8,
        lifeline_graph: str = "hypercube",
        plan: ProtocolPlan | None = None,
        **kwargs,
    ):
        if plan is None:
            plan = ProtocolPlan(
                lifeline_count=lifeline_count,
                lifeline_threshold=lifeline_threshold,
                lifeline_graph=lifeline_graph,
            )
        super().__init__(*args, plan=plan, **kwargs)

    # ------------------------------------------------------------------
    # Lifeline-state views (read-only; the protocol owns the state)
    # ------------------------------------------------------------------

    @property
    def lifeline_threshold(self) -> int:
        return self.protocol.lifeline_threshold

    @property
    def partners(self) -> list[int]:
        return self.protocol.partners

    @property
    def waiters(self) -> list[int]:
        return self.protocol.waiters

    @property
    def lifeline_pushes(self) -> int:
        return self.protocol.lifeline_pushes

    @property
    def lifeline_wakeups(self) -> int:
        return self.protocol.lifeline_wakeups

    @property
    def quiesce_episodes(self) -> int:
        return self.protocol.quiesce_episodes

    @property
    def _quiescent(self) -> bool:
        return self.protocol._quiescent

    @property
    def _armed(self) -> bool:
        return self.protocol._armed
