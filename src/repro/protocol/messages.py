"""Wire format of the simulated work-stealing protocol.

The protocol mirrors the reference MPI UTS (§II-A of the paper): the
implementation "does not respect the work-first principle.  Indeed, a
process stealing work will in fact post a request to its victim by a
message, and the victim will stop working on its queue to package work
and send it to the stealer."

A message is ``(tag, src, body)``: an integer tag, the sending rank,
and a body whose meaning the tag fixes.  The sender *is* the thief of a
request and the victim of a response, so neither is stored, and a
failed steal — the event a large run is made of — allocates nothing.

* ``TAG_STEAL_REQUEST`` — body ``escalated`` (bool): after K failed
  steals an adaptive steal policy
  (:class:`repro.select.adaptive.AdaptiveStealPolicy`) asks for a
  larger transfer.  The flag travels with the request so the policy
  object, shared by every rank, stays stateless;
* ``TAG_STEAL_RESPONSE`` — body the stolen chunks' nodes, one flat
  list of whole chunks, bottom first (a grant; never empty), or
  ``None`` (a deny);
* ``TAG_STEAL_FORWARD`` — body a :class:`StealForward`;
* ``TAG_TOKEN`` — body the termination token's colour, ``WHITE`` or
  ``BLACK`` (see :mod:`repro.sim.termination`);
* ``TAG_FINISH`` — no body: rank 0's broadcast that the computation is
  over;
* ``TAG_LIFELINE_REGISTER`` / ``TAG_LIFELINE_DEREGISTER`` — no body: the
  sender arms / disarms its lifeline at the receiver;
* ``TAG_EXEC`` — no body and not a message: the engine's own event for
  a rank reaching a poll boundary.

The event loop and the protocol dispatch on the tag with plain integer
comparisons.
"""

from __future__ import annotations

__all__ = [
    "StealForward",
    "WHITE",
    "BLACK",
    "TAG_STEAL_REQUEST",
    "TAG_STEAL_RESPONSE",
    "TAG_TOKEN",
    "TAG_FINISH",
    "TAG_LIFELINE_REGISTER",
    "TAG_LIFELINE_DEREGISTER",
    "TAG_STEAL_FORWARD",
    "TAG_EXEC",
]

WHITE = 0
BLACK = 1

TAG_STEAL_REQUEST = 0
TAG_STEAL_RESPONSE = 1
TAG_TOKEN = 2
TAG_FINISH = 3
TAG_LIFELINE_REGISTER = 4
TAG_LIFELINE_DEREGISTER = 5
TAG_STEAL_FORWARD = 6
TAG_EXEC = 7


class StealForward:
    """Body of a relayed steal request hunting for work.

    A victim with nothing to give relays the originating thief's
    request toward likely work instead of replying fail (the Project
    Picasso idiom; see :mod:`repro.protocol`).  The sender of a forward
    is the relaying rank, so ``thief`` — always the *originator* — has
    to travel: a serving rank replies straight to it with a plain
    response, and the thief side of the protocol is unchanged.  ``ttl``
    bounds the remaining relay hops and ``visited`` (an ordered tuple:
    originator, then every rank the request has passed through)
    prevents cycles; both travel on the message, keeping every rank's
    state machine memoryless about in-flight chains.
    """

    __slots__ = ("thief", "escalated", "ttl", "visited")

    def __init__(
        self, thief: int, escalated: bool, ttl: int, visited: tuple[int, ...]
    ):
        self.thief = thief
        self.escalated = escalated
        self.ttl = ttl
        self.visited = tuple(visited)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        esc = ", escalated" if self.escalated else ""
        return (
            f"StealForward(thief={self.thief}{esc}, ttl={self.ttl}, "
            f"visited={self.visited})"
        )
