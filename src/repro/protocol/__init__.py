"""The steal protocol: one rank's state machine and its wire format.

:class:`~repro.protocol.core.Worker` is one simulated rank — quantum
execution, polling, victim draws, request/response/forward/push
handling, session accounting and the termination handshake —
configured per run by an immutable
:class:`~repro.protocol.core.ProtocolPlan` and talking to the engine
through the :class:`~repro.protocol.core.Transport` interface.  The
package imports nothing from :mod:`repro.sim`; the engine imports it.

In that state machine three protocol features compose (with each other
and with every victim selector):

* **Forwarding** (``protocol="forward"``): a victim with nothing to
  give relays the request toward work — TTL-bounded, cycle-free via a
  visited set on the message — and the eventual server responds
  straight to the originator (the Project Picasso idiom).
* **Locality regions** (``regions=R``): victim draws try the rank's
  own allocation-aligned region first and escalate outward after
  ``region_attempts`` misses (localized stealing, arXiv:1804.04773).
* **Lifeline graphs** (``lifelines=K, lifeline_graph=G``): the
  quiesce-and-push scheme over a configurable partner graph
  (:mod:`repro.protocol.graphs`) instead of the hard-coded hypercube.

All knobs are physics: they participate in result fingerprints (with
default elision, so pre-existing fingerprints are unchanged) and hold
the engine bit-identity contract — see ``DESIGN.md``.
"""

from repro.protocol.core import ProtocolPlan, Transport, Worker, WorkerStatus
from repro.protocol.factory import build_plan, make_workers
from repro.protocol.graphs import (
    SYMMETRIC_GRAPHS,
    hypercube_partners,
    regtree_partners,
    ring_partners,
)
from repro.protocol.regions import RegionMap
from repro.protocol.variants import protocol_overrides, protocol_tag

__all__ = [
    "ProtocolPlan",
    "Worker",
    "WorkerStatus",
    "Transport",
    "build_plan",
    "make_workers",
    "RegionMap",
    "hypercube_partners",
    "ring_partners",
    "regtree_partners",
    "SYMMETRIC_GRAPHS",
    "protocol_overrides",
    "protocol_tag",
]
