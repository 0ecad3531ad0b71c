"""Distributed termination detection: the token ring of the UTS MPI code.

The reference implementation detects global work exhaustion with a
token-ring algorithm ("Such condition is detected by a token-ring
distributed termination algorithm", §II-A).  We implement the
Dijkstra–Feijen–van Gasteren scheme with the conservative blackening
rule used by practical codes:

* every rank has a colour; sending *work* to anyone turns the sender
  **black** (the work message may overtake the probe);
* rank 0, once idle, starts a probe by sending a **white** token to
  rank 1; the token walks the ring ``0 -> 1 -> ... -> N-1 -> 0``;
* a rank holds the token until it is idle; when forwarding, a black
  rank blackens the token and bleaches itself;
* when the token returns to an idle, white rank 0 and the token is
  still white, the computation has terminated; otherwise rank 0
  bleaches itself and starts a new probe.

The colours assume a message cannot overtake an earlier one, and the
wire here keeps no order: a token rank 0 sends right after work (which
pays a transfer time per node) can pass the thief while it is still
idle, and come back white while the work is in flight or being worked
on.  So an optional ``quiescent`` check must also hold before rank 0
declares: no rank running and no grant on the wire, which the engine
reads off one count (``Cluster._live == 0``).  A probe it fails is a
failed probe.  Where the colours are right it always holds, so it
changes only runs whose declaration was early.

The class is deliberately pure state-machine: it never touches the
event queue.  Callers feed it observations (`work_sent`, `rank_idle`,
`token_arrived`) and it answers with a :class:`TokenAction` describing
what message, if any, to emit — making it directly unit-testable
against adversarial schedules.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import TerminationError
from repro.protocol.messages import BLACK, WHITE

__all__ = ["TokenAction", "DijkstraTermination"]


@dataclass(frozen=True)
class TokenAction:
    """What the protocol wants the caller to do.

    ``send_to``/``send_color``: forward a token (None = nothing).
    ``terminated``: rank 0 proved global termination.
    """

    send_to: int | None = None
    send_color: int | None = None
    terminated: bool = False

    @property
    def sends(self) -> bool:
        return self.send_to is not None


_NOTHING = TokenAction()


class DijkstraTermination:
    """Token-ring termination detector for ``nranks`` processes."""

    def __init__(
        self, nranks: int, quiescent: Callable[[], bool] | None = None
    ):
        if nranks < 1:
            raise TerminationError(f"need at least 1 rank, got {nranks}")
        self.nranks = nranks
        self._color = [WHITE] * nranks
        self._holds_token = [False] * nranks
        self._held_color = [WHITE] * nranks
        self._started = False
        self._terminated = False
        self._quiescent = quiescent
        # Exposed statistics.
        self.probes_started = 0

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------

    def work_sent(self, rank: int) -> None:
        """Rank ``rank`` sent a work message: it turns black."""
        self._check_rank(rank)
        self._color[rank] = BLACK

    def rank_idle(self, rank: int) -> TokenAction:
        """Rank ``rank`` just became idle (empty stack).

        Rank 0 starts the first probe here; any rank holding a
        deferred token releases it.
        """
        self._check_rank(rank)
        if self._terminated:
            return _NOTHING
        if rank == 0 and not self._started:
            return self._start_probe()
        if self._holds_token[rank]:
            return self._release(rank)
        return _NOTHING

    def token_arrived(self, rank: int, color: int, is_idle: bool) -> TokenAction:
        """The token reached ``rank``; forward now or hold until idle."""
        self._check_rank(rank)
        if self._terminated:
            return _NOTHING
        if color not in (WHITE, BLACK):
            raise TerminationError(f"bad token color {color}")
        if self._holds_token[rank]:
            raise TerminationError(f"rank {rank} received a second token")
        self._holds_token[rank] = True
        self._held_color[rank] = color
        if is_idle:
            return self._release(rank)
        return _NOTHING

    @property
    def terminated(self) -> bool:
        return self._terminated

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _start_probe(self) -> TokenAction:
        self._started = True
        self.probes_started += 1
        self._color[0] = WHITE
        if self.nranks == 1:
            # Ring of one: rank 0 idle and white proves termination.
            self._terminated = True
            return TokenAction(terminated=True)
        return TokenAction(send_to=1, send_color=WHITE)

    def _release(self, rank: int) -> TokenAction:
        """Rank ``rank`` is idle and holds the token: act on it."""
        self._holds_token[rank] = False
        color = self._held_color[rank]
        if rank == 0:
            if (
                color == WHITE
                and self._color[0] == WHITE
                and (self._quiescent is None or self._quiescent())
            ):
                self._terminated = True
                return TokenAction(terminated=True)
            # Failed probe: bleach and go again.
            self.probes_started += 1
            self._color[0] = WHITE
            return TokenAction(send_to=1, send_color=WHITE)
        out_color = BLACK if self._color[rank] == BLACK else color
        self._color[rank] = WHITE
        return TokenAction(
            send_to=(rank + 1) % self.nranks, send_color=out_color
        )

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nranks:
            raise TerminationError(
                f"rank {rank} out of range [0, {self.nranks})"
            )
