"""The raw outcome of one simulated job.

The engine itself is :class:`repro.sim.shard.ShardedCluster`; this
module only holds the record its ``run()`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import WorkStealingConfig
from repro.core.tracing import TraceRecorder
from repro.net.allocation import Placement
from repro.sim.clock import ClockSkewModel
from repro.sim.worker import Worker
from repro.trace.events import EventRecorder

__all__ = ["SimOutcome"]


@dataclass
class SimOutcome:
    """Raw output of one simulation (refined by ``repro.ws.results``)."""

    config: WorkStealingConfig
    placement: Placement
    workers: list[Worker]
    recorders: list[TraceRecorder] | None
    clock: ClockSkewModel
    total_time: float
    events_processed: int
    messages_dropped: int
    probes_started: int
    #: Structured steal-event recorders (``config.event_trace``).
    event_recorders: list[EventRecorder] | None = None

    @property
    def total_nodes(self) -> int:
        return sum(w.nodes_processed for w in self.workers)
