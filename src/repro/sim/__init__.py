"""Discrete-event simulation of a message-passing cluster.

This subpackage replaces the K Computer: simulated MPI ranks run the
reference UTS work-stealing algorithm, exchanging messages whose
delivery times come from the :mod:`repro.net` latency models.

Modules
-------
``termination``
    Dijkstra-style token-ring distributed termination detection.
``clock``
    Per-rank clock offsets, which the result layer stamps the activity
    trace with and corrects it by.
``cluster``
    The engine: the ``(time, pusher, seq, tag, dst, body)`` event, its
    ``(time, pusher, seq)`` key order, :class:`Cluster` (placement +
    workers + one heap, one loop) and :class:`SimOutcome`, the raw
    record a run returns.

The per-rank state machine (:class:`repro.protocol.Worker`) and the
tags an event carries — every message tag plus ``TAG_EXEC`` — live in
:mod:`repro.protocol`, which this package imports and not the reverse.
"""

from repro.sim.termination import DijkstraTermination, TokenAction
from repro.sim.clock import ClockSkewModel
from repro.sim.cluster import SimOutcome

__all__ = [
    "DijkstraTermination",
    "TokenAction",
    "ClockSkewModel",
    "SimOutcome",
]
