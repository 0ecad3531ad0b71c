"""The engine's send and dispatch paths keep their contracts.

``_Shard.send`` reads wire times from a per-shard table of code rows and
``process_window`` delivers messages through a handler table bound once
per shard; neither may change what a caller can rely on: transports
are looked up per call (so a class-level patch sees every message),
foreign payloads fail as ``SimulationError``, a ``Worker`` subclass
that overrides ``on_message`` is honoured, ``teardown`` leaves nothing
cyclic behind, and ``send_bound`` never exceeds the time the engine
itself reaches by accumulation.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.sim.worker as worker_mod
from repro.core.config import WorkStealingConfig
from repro.errors import SimulationError
from repro.protocol.messages import StealRequest, StealResponse, Token
from repro.sim.engine import EVT_EXEC
from repro.sim.shard import ShardedCluster, _Shard
from repro.sim.worker import Worker
from repro.uts.params import T3XS
from repro.uts.tree import TreeGenerator

_INF = float("inf")


def _cfg(**kw) -> WorkStealingConfig:
    kw.setdefault("nranks", 8)
    return WorkStealingConfig(tree=T3XS, **kw)


def _shard(cfg: WorkStealingConfig, index: int = 0) -> _Shard:
    """One shard built the way ``_run_inprocess`` builds it."""
    cluster = ShardedCluster(cfg)
    generator = TreeGenerator(cfg.tree, cfg.rng_backend)
    return _Shard(
        index, cluster.bounds, cfg, cluster.placement, cluster.clock,
        generator, 10**9, None, None,
    )


class TestSendPath:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_class_level_patch_sees_every_message(self, shards, monkeypatch):
        original = _Shard.send
        seen = {StealRequest: 0, StealResponse: 0, Token: 0}

        def counting_send(self, src, dst, payload, when):
            seen[type(payload)] += 1
            original(self, src, dst, payload, when)

        monkeypatch.setattr(_Shard, "send", counting_send)
        out = ShardedCluster(_cfg(engine="sharded", shards=shards)).run()
        workers = out.workers
        assert seen[StealRequest] == sum(w.steal_requests_sent for w in workers)
        assert seen[StealResponse] == sum(
            w.requests_served + w.requests_denied for w in workers
        )
        assert seen[Token] > 0

    def test_wire_time_is_the_model_row(self):
        cfg = _cfg(engine="sharded", shards=2)
        shard = _shard(cfg, index=1)
        placement = ShardedCluster(cfg).placement
        code_row, values = cfg.latency_model.code_rows(
            placement.topology, placement.rank_nodes
        )
        src = shard.lo + 1
        for dst in range(cfg.nranks):
            shard.send(src, dst, StealRequest(src), 1.0)
        local = {e[4]: e[0] for e in shard._msg_heap}
        staged = {e[4]: e[0] for box in shard._outbox for e in box}
        assert sorted(local) == list(range(shard.lo, shard.hi))
        assert sorted(staged) == list(range(shard.lo))
        codes = code_row(src)
        for dst, arrival in {**local, **staged}.items():
            assert type(arrival) is float
            assert arrival == 1.0 + values[codes[dst]]
        # One row per local sender, built on its first send only: the
        # sender's codes, one byte per rank.
        assert [r is not None for r in shard._rows] == [
            rank == src for rank in range(shard.lo, shard.hi)
        ]
        assert shard._rows[src - shard.lo].nbytes == cfg.nranks
        assert bytes(shard._rows[src - shard.lo]) == codes.tobytes()
        # Sequence numbers are dense per sender.
        assert sorted(e[2] for e in shard._msg_heap + sum(shard._outbox, [])) == (
            list(range(cfg.nranks))
        )

    @pytest.mark.parametrize("shards", [1, 2])
    def test_payload_without_tag_is_a_simulation_error(self, shards, monkeypatch):
        class Untagged:
            pass

        original = _Shard.send
        state = {"n": 0}

        def corrupting_send(self, src, dst, payload, when):
            state["n"] += 1
            if state["n"] == 3:
                payload = Untagged()
            original(self, src, dst, payload, when)

        monkeypatch.setattr(_Shard, "send", corrupting_send)
        with pytest.raises(SimulationError, match="unexpected message"):
            ShardedCluster(_cfg(engine="sharded", shards=shards)).run()


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
            cluster = ShardedCluster(cfg)
            out = cluster.run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.total_nodes == 4427
        assert peak < 18 * 2**20
        (shard,) = cluster._shards
        assert all(row.nbytes == cfg.nranks for row in shard._rows)


class TestHandlerTable:
    def test_plain_worker_skips_the_trampoline(self):
        shard = _shard(_cfg())
        for worker, handler in zip(shard.workers, shard._handlers):
            assert handler == worker.protocol.on_message

    @pytest.mark.parametrize("shards", [1, 2])
    def test_worker_subclass_override_is_called(self, shards, monkeypatch):
        calls = []

        class SpyWorker(Worker):
            __slots__ = ()

            def on_message(self, now, msg):
                calls.append((self.rank, type(msg).__name__))
                super().on_message(now, msg)

        # The factory resolves ``Worker`` from its module at call time.
        monkeypatch.setattr(worker_mod, "Worker", SpyWorker)
        cfg = _cfg(engine="sharded", shards=shards)
        out = ShardedCluster(cfg).run()
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
        cluster = ShardedCluster(_cfg(engine="sharded", shards=2))
        cluster.run()
        shards = list(cluster._shards)
        assert all(s._handlers for s in shards)
        cluster.teardown()
        assert all(s._handlers == [] and s.workers == [] for s in shards)


class TestSendBoundRounding:
    """``send_bound`` is one multiply, the engine an accumulation; the
    bound must stay below whatever the accumulation rounds to."""

    @staticmethod
    def _loaded(size: int, t0: float, **kw):
        """A shard whose rank 1 holds ``size`` childless nodes and one
        EXEC at ``t0``; returns ``(shard, worker)``."""
        shard = _shard(_cfg(**kw))
        worker = shard.workers[1]
        worker.stack.push_batch(
            np.arange(size, dtype=np.uint64) + 77,
            np.full(size, 3, dtype=np.int32),
        )
        worker._children_list = lambda states, depths: ([], [])
        assert worker._scalar_path and worker._plain_serve
        shard._exec_heap.append((t0, 1, 0, EVT_EXEC, 1, None))
        return shard, worker

    def test_known_overshoot_case(self):
        # 12 nodes at poll_interval 10: 10e-6 + 2e-6 accumulates to
        # 1.1999999999999999e-05, one ulp below 12 * 1e-6.
        shard, worker = self._loaded(12, 0.0)
        assert worker.poll_interval == 10 and worker.per_node_time == 1e-6
        bound = shard.send_bound()
        drained_at, quanta = worker.run_quanta(0.0, _INF)
        assert quanta == 2 and worker.stack.is_empty
        assert drained_at < 12 * 1e-6  # the one-shot product overshoots
        assert bound <= drained_at

    @pytest.mark.parametrize("poll", [1, 2, 10])
    def test_bound_never_exceeds_the_accumulated_drain_time(self, poll):
        overshoots = 0
        for size in list(range(1, 150)) + [4801, 20_000]:
            for t0 in (0.0, 0.1 + 1e-6 * size, 7.3):
                shard, worker = self._loaded(size, t0, poll_interval=poll)
                pnt = worker.per_node_time
                bound = shard.send_bound()
                drained_at, _quanta = worker.run_quanta(t0, _INF)
                assert worker.stack.is_empty
                assert bound <= drained_at, (size, t0, poll)
                # ... and stays a useful bound: within a part in 1e9.
                assert bound >= drained_at * (1 - 1e-9)
                overshoots += drained_at < t0 + size * pnt
        assert overshoots > 0  # the sweep does cover the rounding case

    def test_pending_or_lifeline_worker_bounds_at_the_exec(self):
        shard, worker = self._loaded(50, 2.0)
        worker.pending.append(StealRequest(3))
        assert shard.send_bound() == 2.0
