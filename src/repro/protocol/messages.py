"""Messages of the simulated work-stealing protocol.

The protocol mirrors the reference MPI UTS (§II-A of the paper): the
implementation "does not respect the work-first principle.  Indeed, a
process stealing work will in fact post a request to its victim by a
message, and the victim will stop working on its queue to package work
and send it to the stealer."

* :class:`StealRequest` — thief asks a victim for work;
* :class:`StealResponse` — victim answers with chunks (success) or
  ``None`` (failed steal);
* :class:`Token` — the termination-detection token (white/black);
* :class:`Finish` — rank 0's broadcast that the computation is over.

Every message class carries an integer ``tag`` class attribute (the
``TAG_*`` constants).  The event loop and the workers dispatch on the
tag with plain integer comparisons instead of ``isinstance`` chains —
one attribute load and an int compare per message on the DES hot path.
"""

from __future__ import annotations

from repro.uts.stack import Chunk

__all__ = [
    "StealRequest",
    "StealResponse",
    "StealForward",
    "Token",
    "Finish",
    "LifelineRegister",
    "LifelineDeregister",
    "WHITE",
    "BLACK",
    "TAG_STEAL_REQUEST",
    "TAG_STEAL_RESPONSE",
    "TAG_TOKEN",
    "TAG_FINISH",
    "TAG_LIFELINE_REGISTER",
    "TAG_LIFELINE_DEREGISTER",
    "TAG_STEAL_FORWARD",
]

WHITE = 0
BLACK = 1

# Integer dispatch tags, one per message class (see module docs).
TAG_STEAL_REQUEST = 0
TAG_STEAL_RESPONSE = 1
TAG_TOKEN = 2
TAG_FINISH = 3
TAG_LIFELINE_REGISTER = 4
TAG_LIFELINE_DEREGISTER = 5
TAG_STEAL_FORWARD = 6


class StealRequest:
    """A steal attempt posted by ``thief``.

    ``escalated`` is thief-side state carried to the victim: after K
    consecutive failed steals an adaptive steal policy
    (:class:`repro.select.adaptive.AdaptiveStealPolicy`) asks for a
    larger transfer.  Keeping the flag on the message — instead of
    state on the shared policy object — is what keeps the policy
    stateless.
    """

    tag = TAG_STEAL_REQUEST

    __slots__ = ("thief", "escalated")

    def __init__(self, thief: int, escalated: bool = False):
        self.thief = thief
        self.escalated = escalated

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        esc = ", escalated" if self.escalated else ""
        return f"StealRequest(thief={self.thief}{esc})"


class StealResponse:
    """The victim's answer: ``chunks`` is None for a failed steal."""

    tag = TAG_STEAL_RESPONSE

    __slots__ = ("victim", "chunks")

    def __init__(self, victim: int, chunks: list[Chunk] | None):
        self.victim = victim
        self.chunks = chunks

    @property
    def has_work(self) -> bool:
        return self.chunks is not None

    @property
    def nodes(self) -> int:
        return sum(c.size for c in self.chunks) if self.chunks else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        what = f"{len(self.chunks)} chunks" if self.chunks else "no work"
        return f"StealResponse(victim={self.victim}, {what})"


class StealForward:
    """A relayed steal request hunting for work (forwarding extension).

    A victim with nothing to give relays the originating thief's
    request toward likely work instead of replying fail (the Project
    Picasso idiom; see :mod:`repro.protocol`).  ``thief`` is always
    the *originator* — a serving rank replies straight to it with a
    plain :class:`StealResponse`, so the thief side of the protocol is
    unchanged.  ``ttl`` bounds the remaining relay hops and
    ``visited`` (an ordered tuple: originator, then every rank the
    request has passed through) prevents cycles; both travel on the
    message, keeping every rank's state machine memoryless about
    in-flight chains — the same design that keeps ``escalated`` on
    :class:`StealRequest`.
    """

    tag = TAG_STEAL_FORWARD

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


class Token:
    """Termination token circulating the ring (see ``termination``)."""

    tag = TAG_TOKEN

    __slots__ = ("color",)

    def __init__(self, color: int):
        if color not in (WHITE, BLACK):
            raise ValueError(f"token color must be WHITE/BLACK, got {color}")
        self.color = color

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({'white' if self.color == WHITE else 'black'})"


class Finish:
    """Termination broadcast from rank 0."""

    tag = TAG_FINISH

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Finish()"


class LifelineRegister:
    """A starving thief arms its lifeline at a partner (extension)."""

    tag = TAG_LIFELINE_REGISTER

    __slots__ = ("thief",)

    def __init__(self, thief: int):
        self.thief = thief

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LifelineRegister(thief={self.thief})"


class LifelineDeregister:
    """A woken thief disarms its lifelines (extension)."""

    tag = TAG_LIFELINE_DEREGISTER

    __slots__ = ("thief",)

    def __init__(self, thief: int):
        self.thief = thief

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LifelineDeregister(thief={self.thief})"
