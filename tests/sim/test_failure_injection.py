"""Failure injection: the simulator must fail loudly, never wedge or
silently lose work.

Real MPI gives reliable delivery, so the production protocol assumes
it; these tests break that assumption on purpose and check that the
simulator's guard rails (event budget, drained-queue detection,
termination validation) catch the damage instead of producing a
plausible-looking wrong result.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest

import repro.protocol.factory as factory_mod

from repro.core.config import WorkStealingConfig
from repro.errors import SimulationError, TerminationError
from repro.net.latency import HierarchicalLatency
from repro.protocol.messages import TAG_EXEC, TAG_STEAL_RESPONSE, TAG_TOKEN
from repro.sim.cluster import Cluster
from repro.sim.termination import DijkstraTermination
from repro.uts.params import T3XS
from tests.sim.fakes import WorkerPath


def _cfg(**kw):
    return WorkStealingConfig(tree=T3XS, nranks=4, **kw)


class TestEventBudget:
    def test_tiny_budget_raises(self):
        with pytest.raises(SimulationError):
            Cluster(_cfg(), max_events=50).run()

    def test_adequate_budget_passes(self):
        out = Cluster(_cfg(), max_events=10_000_000).run()
        assert out.total_nodes > 0

    def test_zero_budget_rejected(self):
        with pytest.raises(SimulationError):
            Cluster(_cfg(), max_events=0)

    @pytest.mark.parametrize("nic", [0.0, 1e-7], ids=["nic-off", "nic-on"])
    def test_budget_counts_every_event(self, nic):
        # An event ``heappushpop`` hands straight back never sits on
        # the heap, and is counted all the same.
        cfg = _cfg(nic_service_time=nic)
        n = Cluster(cfg).run().events_processed
        assert Cluster(cfg, max_events=n).run().events_processed == n
        with pytest.raises(SimulationError, match=f"exceeded {n - 1} events"):
            Cluster(cfg, max_events=n - 1).run()

    def test_budget_counts_deferred_quanta(self, monkeypatch):
        # Quanta that run between wakes count one event each, wakes
        # none: the budget that passes and the one that raises are
        # those of the run that defers nothing.
        cfg = _cfg(poll_interval=2)
        wakes = []
        original = heapq.heappushpop

        def spy(heap, item):
            if item[3] == TAG_EXEC and item[5] is not None:
                wakes.append(item)
            return original(heap, item)

        monkeypatch.setattr(heapq, "heappushpop", spy)
        n = Cluster(cfg).run().events_processed
        assert wakes
        monkeypatch.undo()
        monkeypatch.setattr(factory_mod, "Worker", WorkerPath)
        assert Cluster(cfg).run().events_processed == n
        monkeypatch.undo()
        assert Cluster(cfg, max_events=n).run().events_processed == n
        with pytest.raises(SimulationError, match=f"exceeded {n - 1} events"):
            Cluster(cfg, max_events=n - 1).run()


class TestMessageLoss:
    nic = 0.0

    def _lossy_cluster(self, monkeypatch, drop_tag, drop_every, max_events):
        """The engine with every ``drop_every``-th ``drop_tag`` send
        silently lost (workers look ``transport.send`` up per call)."""
        original_send = Cluster.send
        state = {"count": 0}

        def lossy_send(self, src, dst, tag, body, when):
            if tag == drop_tag:
                state["count"] += 1
                if state["count"] % drop_every == 0:
                    return  # message silently lost
            original_send(self, src, dst, tag, body, when)

        monkeypatch.setattr(Cluster, "send", lossy_send)
        return Cluster(_cfg(nic_service_time=self.nic), max_events=max_events)

    def test_dropped_responses_detected(self, monkeypatch):
        """Losing steal responses strands thieves: a lost grant keeps
        its chunks counted live (``Cluster._live`` stays at 1), so the
        run never drains and the idle ranks ping forever.  The event
        budget converts the livelock into an error; the run never hangs
        or returns a partial count as success."""
        lossless = Cluster(_cfg(nic_service_time=self.nic)).run()
        budget = 3 * lossless.events_processed
        cluster = self._lossy_cluster(
            monkeypatch, TAG_STEAL_RESPONSE, drop_every=2, max_events=budget
        )
        with pytest.raises(SimulationError, match=f"exceeded {budget} events"):
            cluster.run()

    def test_dropped_tokens_detected(self, monkeypatch):
        """Losing the termination token leaves idle thieves pinging
        forever; the event budget converts the livelock into an error,
        and every node of the tree was expanded before it did."""
        lossless = Cluster(_cfg(nic_service_time=self.nic)).run()
        budget = 3 * lossless.events_processed
        cluster = self._lossy_cluster(
            monkeypatch, TAG_TOKEN, drop_every=1, max_events=budget
        )
        with pytest.raises(SimulationError, match=f"exceeded {budget} events"):
            cluster.run()
        expanded = sum(w.nodes_processed for w in cluster.workers)
        assert expanded == lossless.total_nodes


class TestMessageLossWithNic(TestMessageLoss):
    """The same losses with NIC contention on: the patch still sees
    every message."""

    nic = 1e-7


class TestStateCorruption:
    def test_duplicate_token_detected(self):
        """Injecting a forged token trips the protocol's own check."""
        det = DijkstraTermination(_cfg().nranks)
        det.rank_idle(0)  # probe started, token heading to rank 1
        det.token_arrived(1, 0, is_idle=False)
        with pytest.raises(TerminationError):
            det.token_arrived(1, 0, is_idle=False)  # forged duplicate

    def test_node_cap_stops_runaway(self):
        with pytest.raises(SimulationError):
            Cluster(_cfg(node_cap=50)).run()

    def test_send_into_the_past_rejected(self, monkeypatch):
        """A transport that computes an arrival before ``now`` is a
        causality bug; the engine refuses to queue it."""
        monkeypatch.setattr(
            HierarchicalLatency,
            "code_rows",
            lambda self, topology, rank_nodes: (
                lambda i: np.zeros(len(rank_nodes), dtype=np.uint8),
                [-1.0],
            ),
        )
        with pytest.raises(SimulationError, match="before current time"):
            Cluster(_cfg()).run()
