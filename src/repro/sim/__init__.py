"""Discrete-event simulation of a message-passing cluster.

This subpackage replaces the K Computer: simulated MPI ranks run the
reference UTS work-stealing algorithm, exchanging messages whose
delivery times come from the :mod:`repro.net` latency models.

Modules
-------
``engine``
    Event kinds, the ``(time, pusher, seq)`` key order and the plain
    event queue (the test oracle's; shards keep split heaps).
``worker``
    The per-rank state machine: quantum execution, polling, steal
    protocol, activity tracing.
``termination``
    Dijkstra-style token-ring distributed termination detection.
``clock``
    Per-rank clock skew injection (and its correction).
``cluster``
    :class:`SimOutcome`, the raw record a run returns.
``shard``
    The engine: :class:`~repro.sim.shard.ShardedCluster` assembles
    placement + workers + shards and runs a job (imported on first
    run, not here).

Message types live in :mod:`repro.protocol.messages`.
"""

from repro.sim.engine import EventQueue, EVT_EXEC, EVT_MSG
from repro.sim.termination import DijkstraTermination, TokenAction
from repro.sim.clock import ClockSkewModel
from repro.sim.worker import Worker, WorkerStatus
from repro.sim.cluster import SimOutcome

__all__ = [
    "EventQueue",
    "EVT_EXEC",
    "EVT_MSG",
    "DijkstraTermination",
    "TokenAction",
    "ClockSkewModel",
    "Worker",
    "WorkerStatus",
    "SimOutcome",
]
