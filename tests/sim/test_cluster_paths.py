"""The engine's send and dispatch paths keep their contracts.

``Cluster.send`` reads wire times from a table of code rows and the
loop delivers messages through a handler table bound once per run;
neither may change what a caller can rely on: transports are looked up
per call (so a class-level patch sees every message), foreign payloads
fail as ``SimulationError``, a ``Worker`` subclass that overrides
``on_message`` is honoured, ``teardown`` leaves nothing cyclic behind,
and the engine object stays small enough for inline attributes.
"""

from __future__ import annotations

import tracemalloc

import pytest

import repro.sim.worker as worker_mod
from repro.core.config import WorkStealingConfig
from repro.errors import SimulationError
from repro.protocol.messages import StealRequest, StealResponse, Token
from repro.sim.cluster import Cluster
from repro.sim.worker import Worker
from repro.uts.params import T3XS


def _cfg(**kw) -> WorkStealingConfig:
    kw.setdefault("nranks", 8)
    return WorkStealingConfig(tree=T3XS, **kw)


class TestSendPath:
    def test_class_level_patch_sees_every_message(self, monkeypatch):
        original = Cluster.send
        seen = {StealRequest: 0, StealResponse: 0, Token: 0}

        def counting_send(self, src, dst, payload, when):
            seen[type(payload)] += 1
            original(self, src, dst, payload, when)

        monkeypatch.setattr(Cluster, "send", counting_send)
        workers = Cluster(_cfg()).run().workers
        assert seen[StealRequest] == sum(w.steal_requests_sent for w in workers)
        assert seen[StealResponse] == sum(
            w.requests_served + w.requests_denied for w in workers
        )
        assert seen[Token] > 0

    def test_wire_time_is_the_model_row(self):
        cfg = _cfg()
        cluster = Cluster(cfg)
        placement = cluster.placement
        code_row, values = cfg.latency_model.code_rows(
            placement.topology, placement.rank_nodes
        )
        src = 5
        for dst in range(cfg.nranks):
            cluster.send(src, dst, StealRequest(src), 1.0)
        arrivals = {e[4]: e[0] for e in cluster._msg_heap}
        assert sorted(arrivals) == list(range(cfg.nranks))
        codes = code_row(src)
        for dst, arrival in arrivals.items():
            assert type(arrival) is float
            assert arrival == 1.0 + values[codes[dst]]
        # One row per sender, built on its first send only: the
        # sender's codes, one byte per rank.
        assert [r is not None for r in cluster._rows] == [
            rank == src for rank in range(cfg.nranks)
        ]
        assert cluster._rows[src].nbytes == cfg.nranks
        assert bytes(cluster._rows[src]) == codes.tobytes()
        # Sequence numbers are dense per sender.
        assert sorted(e[2] for e in cluster._msg_heap) == list(
            range(cfg.nranks)
        )

    def test_payload_without_tag_is_a_simulation_error(self, monkeypatch):
        class Untagged:
            pass

        original = Cluster.send
        state = {"n": 0}

        def corrupting_send(self, src, dst, payload, when):
            state["n"] += 1
            if state["n"] == 3:
                payload = Untagged()
            original(self, src, dst, payload, when)

        monkeypatch.setattr(Cluster, "send", corrupting_send)
        with pytest.raises(SimulationError, match="unexpected message"):
            Cluster(_cfg()).run()

    @pytest.mark.parametrize("nic", [0.0, 1e-7], ids=["nic-off", "nic-on"])
    def test_engine_keeps_inline_attributes(self, nic):
        # CPython 3.11 stops storing instance attributes inline at 30;
        # every ``self.x`` load on the send path then costs ~25% more.
        assert len(vars(Cluster(_cfg(nic_service_time=nic)))) < 30


class TestMemory:
    def test_no_float_table_per_rank_pair_at_1024_ranks(self):
        """Set-up plus run of a 1024-rank tofu job on ``1/N`` peaks at
        9 MiB traced: one byte per rank pair of latency codes (1 MiB),
        one block of drawn victims per rank, workers and stacks.  N
        float64 per rank — latency rows or cumulative victim tables —
        are 8 MiB each on top (both: 24 MiB)."""
        cfg = _cfg(nranks=1024, selector="tofu", steal_policy="half")
        tracemalloc.start()
        try:
            cluster = Cluster(cfg)
            out = cluster.run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.total_nodes == 4427
        assert peak < 18 * 2**20
        assert all(row.nbytes == cfg.nranks for row in cluster._rows)


class TestHandlerTable:
    def test_plain_worker_skips_the_trampoline(self):
        cluster = Cluster(_cfg())
        for worker, handler in zip(cluster.workers, cluster._handlers):
            assert handler == worker.protocol.on_message

    def test_worker_subclass_override_is_called(self, monkeypatch):
        calls = []

        class SpyWorker(Worker):
            __slots__ = ()

            def on_message(self, now, msg):
                calls.append((self.rank, type(msg).__name__))
                super().on_message(now, msg)

        # The factory resolves ``Worker`` from its module at call time.
        monkeypatch.setattr(worker_mod, "Worker", SpyWorker)
        cfg = _cfg()
        out = Cluster(cfg).run()
        assert all(type(w) is SpyWorker for w in out.workers)
        delivered = [name for _rank, name in calls]
        # Requests still in flight at termination are dropped undelivered.
        assert 0 < delivered.count("StealRequest") <= sum(
            w.steal_requests_sent for w in out.workers
        )
        assert delivered.count("StealResponse") == sum(
            w.failed_steals + w.successful_steals for w in out.workers
        )
        assert delivered.count("Finish") == cfg.nranks
        assert {rank for rank, _name in calls} == set(range(cfg.nranks))

    def test_teardown_cuts_the_table(self):
        cluster = Cluster(_cfg())
        cluster.run()
        assert cluster._handlers and cluster.workers
        cluster.teardown()
        assert cluster._handlers == [] and cluster.workers == []
