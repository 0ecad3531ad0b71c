"""The engine's send and dispatch paths keep their contracts.

``Cluster.send`` reads wire times from a table of code rows, and the
loop runs a plain rank's quanta and failed steals itself and delivers
everything else through a handler table bound once per run; neither
may change what a caller can rely on: transports are looked up per
call (so a class-level patch sees every message), unknown tags fail as
``SimulationError``, a ``Worker`` subclass that overrides ``on_message``
or ``on_exec`` is honoured, a response at a RUNNING rank without
lifelines is still a protocol violation, ``teardown`` leaves nothing
cyclic behind, and the engine object stays small enough for inline
attributes.  A running rank's deferred quanta are caught up exactly to
the key of the event that reaches it: ties at a quantum's time, a
waiter that registers mid-deferral, a clock that a quantum does not
move and the event budget all come out as on the ``Worker`` path, and
a wake is never counted as an event or a dropped message.  The hot
loop's cost is gated as counts — Python-level calls per event, heap
operations per event — which repeat exactly and need no clock.
"""

from __future__ import annotations

import cProfile
import heapq
import json
import pstats
import subprocess
import sys
from collections import Counter
from unittest import mock

import pytest

import repro.protocol.factory as factory_mod
from repro.core.config import WorkStealingConfig
from repro.errors import SimulationError
from repro.protocol.core import Worker
from repro.net.latency import UniformLatency
from repro.protocol.messages import (
    TAG_EXEC,
    TAG_FINISH,
    TAG_LIFELINE_REGISTER,
    TAG_STEAL_REQUEST,
    TAG_STEAL_RESPONSE,
    TAG_TOKEN,
)
from repro.sim.cluster import Cluster
from repro.uts.params import GEO_S, T3S, T3XS, TreeParams
from repro.uts.sequential import sequential_count
from repro.ws.results import RunResult
from tests.sim.fakes import WorkerPath
from tests.sim.oracle import oracle_result


def _cfg(**kw) -> WorkStealingConfig:
    kw.setdefault("nranks", 8)
    kw.setdefault("tree", T3XS)
    return WorkStealingConfig(**kw)


def _result_json(cfg, worker_path=False, inject=(), max_events=None) -> str:
    """``to_json()`` of one run, with ``inject``'s events on the heap
    from the start."""
    with mock.patch.object(
        factory_mod, "Worker", WorkerPath if worker_path else Worker
    ):
        cluster = Cluster(cfg, max_events=max_events)
    assert (cluster._plain[0] is None) == worker_path
    for event in inject:
        heapq.heappush(cluster._heap, event)
    return RunResult.from_outcome(cluster.run()).to_json()


def _passed_deferred_quantum(cfg, rank) -> list:
    """Stop the run at ever larger event budgets until ``rank`` has a
    deferred quantum the run has passed; return its ``[time, seq]``.

    Up to that event the rank's quanta ran with no event reaching it,
    so an event injected at the quantum's key finds it deferred.
    """
    for budget in range(1, 20_000, 7):
        cluster = Cluster(cfg, max_events=budget)
        with pytest.raises(SimulationError, match="exceeded"):
            cluster.run()
        key = cluster._deferred[rank]
        if key is not None and key[0] < cluster.now:
            return key
    raise AssertionError(f"rank {rank} deferred no quantum")


class TestSendPath:
    nic = 0.0

    def test_class_level_patch_sees_every_message(self, monkeypatch):
        original = Cluster.send
        seen = Counter()

        def counting_send(self, src, dst, tag, body, when):
            seen[tag] += 1
            original(self, src, dst, tag, body, when)

        monkeypatch.setattr(Cluster, "send", counting_send)
        workers = Cluster(_cfg(nic_service_time=self.nic)).run().workers
        assert seen[TAG_STEAL_REQUEST] == sum(
            w.steal_requests_sent for w in workers
        )
        assert seen[TAG_STEAL_RESPONSE] == sum(
            w.requests_served + w.requests_denied for w in workers
        )
        assert seen[TAG_TOKEN] > 0
        assert set(seen) == {TAG_STEAL_REQUEST, TAG_STEAL_RESPONSE, TAG_TOKEN}

    def test_wire_time_is_the_model_row(self):
        cfg = _cfg()
        cluster = Cluster(cfg)
        placement = cluster.placement
        code_row, values = cfg.latency_model.code_rows(
            placement.topology, placement.rank_nodes
        )
        src = 5
        for dst in range(cfg.nranks):
            cluster.send(src, dst, TAG_STEAL_REQUEST, False, 1.0)
        # The sender is the pusher, its sequence numbers are dense, the
        # tag is the event kind.
        assert {e[1:4] for e in cluster._heap} == {
            (src, seq, TAG_STEAL_REQUEST) for seq in range(cfg.nranks)
        }
        arrivals = {e[4]: e[0] for e in cluster._heap}
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

    def test_payload_without_tag_is_a_simulation_error(self, monkeypatch):
        original = Cluster.send
        state = {"n": 0}

        def corrupting_send(self, src, dst, tag, body, when):
            state["n"] += 1
            if state["n"] == 3:
                tag = 99
            original(self, src, dst, tag, body, when)

        monkeypatch.setattr(Cluster, "send", corrupting_send)
        with pytest.raises(SimulationError, match="unexpected message"):
            Cluster(_cfg(nic_service_time=self.nic)).run()

    @pytest.mark.parametrize("nic", [0.0, 1e-7], ids=["nic-off", "nic-on"])
    def test_engine_keeps_inline_attributes(self, nic):
        # CPython 3.11 stops storing instance attributes inline at 30;
        # every ``self.x`` load on the send path then costs ~25% more.
        assert len(vars(Cluster(_cfg(nic_service_time=nic)))) < 30


class TestSendPathWithNic:
    """The patch tests on an engine with NIC contention on: the loop
    writes ``send`` out, port arithmetic included, only while it is the
    engine's own."""

    nic = 1e-7
    test_class_level_patch_sees_every_message = (
        TestSendPath.test_class_level_patch_sees_every_message
    )
    test_payload_without_tag_is_a_simulation_error = (
        TestSendPath.test_payload_without_tag_is_a_simulation_error
    )

    def test_subclass_send_override_sees_every_message(self):
        seen = Counter()

        class CountingCluster(Cluster):
            def send(self, src, dst, tag, body, when):
                seen[tag] += 1
                super().send(src, dst, tag, body, when)

        cfg = _cfg(nic_service_time=self.nic)
        out = CountingCluster(cfg).run()
        assert seen[TAG_STEAL_REQUEST] == sum(
            w.steal_requests_sent for w in out.workers
        )
        plain = RunResult.from_outcome(Cluster(cfg).run())
        assert RunResult.from_outcome(out).to_dict() == plain.to_dict()


#: One 1024-rank tofu job on ``1/N`` in a fresh process: the growth of
#: its peak RSS over set-up plus run, and the byte sizes of the latency
#: rows.  An 8-rank job first does the lazy imports and first-call
#: caches, so the growth is the job's own.
_PEAK_RSS_JOB = """
import json, resource
from repro.core.config import WorkStealingConfig
from repro.sim.cluster import Cluster
from repro.uts.params import T3XS

def config(nranks):
    return WorkStealingConfig(
        tree=T3XS, nranks=nranks, selector="tofu", steal_policy="half"
    )

def peak():
    # VmHWM, not ru_maxrss: Linux carries a parent's ru_maxrss across
    # fork and exec, so a child of a large process reads its parent's.
    try:
        with open("/proc/self/status") as fh:
            return 1024 * next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS

Cluster(config(8)).run()
before = peak()
cluster = Cluster(config(1024))
out = cluster.run()
print(json.dumps({
    "peak": peak() - before,
    "nodes": out.total_nodes,
    "row_bytes": sorted({row.nbytes for row in cluster._rows}),
}))
"""


class TestMemory:
    def test_no_float_table_per_rank_pair_at_1024_ranks(self):
        """Set-up plus run of a 1024-rank tofu job on ``1/N`` grows peak
        RSS by about 7 MiB: one byte per rank pair of latency codes
        (1 MiB), one block of drawn victims per rank, workers and
        stacks.  N float64 per rank — latency rows or cumulative victim
        tables — are 8 MiB each on top (both: 24 MiB).  Peak RSS of a
        fresh process measures it without tracing the event loop."""
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_JOB],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        job = json.loads(proc.stdout)
        assert job["nodes"] == 4427
        assert job["peak"] < 18 * 2**20
        assert job["row_bytes"] == [1024]


class TestHandlerTable:
    def test_plain_worker_skips_the_trampoline(self):
        # One rank is one object: delivery calls the worker itself,
        # with NIC contention on and off.
        for nic in (0.0, 1e-6):
            cluster = Cluster(_cfg(nic_service_time=nic))
            assert len(cluster._handlers) == len(cluster.workers) == 8
            for worker, handler in zip(cluster.workers, cluster._handlers):
                assert not hasattr(type(worker), "protocol")
                assert handler == worker.on_message

    def test_worker_subclass_override_is_called(self, monkeypatch):
        calls = []

        class SpyWorker(Worker):
            __slots__ = ()

            def on_message(self, now, tag, src, body):
                calls.append((self.rank, tag))
                super().on_message(now, tag, src, body)

        # The factory resolves ``Worker`` from its module at call time.
        monkeypatch.setattr(factory_mod, "Worker", SpyWorker)
        cfg = _cfg()
        out = Cluster(cfg).run()
        assert all(type(w) is SpyWorker for w in out.workers)
        delivered = Counter(tag for _rank, tag in calls)
        # Requests still in flight at termination are dropped undelivered.
        assert 0 < delivered[TAG_STEAL_REQUEST] <= sum(
            w.steal_requests_sent for w in out.workers
        )
        assert delivered[TAG_STEAL_RESPONSE] == sum(
            w.failed_steals + w.successful_steals for w in out.workers
        )
        assert delivered[TAG_FINISH] == cfg.nranks
        assert {rank for rank, _tag in calls} == set(range(cfg.nranks))

    @pytest.mark.parametrize("nic", [0.0, 1e-7], ids=["nic-off", "nic-on"])
    def test_worker_subclass_on_exec_sees_every_exec(self, monkeypatch, nic):
        calls = Counter()

        class SpyWorker(Worker):
            __slots__ = ()

            def on_exec(self, now):
                calls[self.rank] += 1
                super().on_exec(now)

        cfg = _cfg(nic_service_time=nic)
        plain = RunResult.from_outcome(Cluster(cfg).run())
        scheduled = Counter()
        original = Cluster.schedule_exec

        def counting_schedule_exec(self, rank, when):
            scheduled[rank] += 1
            original(self, rank, when)

        # A subclass's EXECs are all scheduled through the transport
        # and, with nothing RUNNING at termination, all delivered.
        monkeypatch.setattr(Cluster, "schedule_exec", counting_schedule_exec)
        monkeypatch.setattr(factory_mod, "Worker", SpyWorker)
        out = Cluster(cfg).run()
        assert all(type(w) is SpyWorker for w in out.workers)
        assert calls == scheduled
        assert sum(calls.values()) > out.total_nodes // cfg.poll_interval
        assert RunResult.from_outcome(out).to_dict() == plain.to_dict()

    def test_response_at_running_thief_is_a_protocol_violation(self):
        # Rank 0 holds the root from the start; a deny it never asked
        # for must not be counted as a failed steal of a WAITING rank.
        cluster = Cluster(_cfg())
        heapq.heappush(
            cluster._heap, (0.0, 1, -1, TAG_STEAL_RESPONSE, 0, None)
        )
        with pytest.raises(
            SimulationError, match="steal response while RUNNING"
        ):
            cluster.run()

    def test_teardown_cuts_the_table(self):
        cluster = Cluster(_cfg())
        cluster.run()
        assert cluster._handlers and cluster.workers and cluster._plain
        cluster.teardown()
        assert cluster._handlers == [] and cluster.workers == []
        assert cluster._plain == cluster._victims == cluster._thieves == []
        assert cluster._deferred == []
        assert cluster.detector is None

    def test_loop_eligibility_is_per_rank(self):
        # Regions of one rank (13 ranks, 8 regions) leave some ranks
        # without peers: only those draw from the selector alone.
        cluster = Cluster(_cfg(nranks=13, regions=8))
        peerless = [w._region_peers is None for w in cluster.workers]
        assert any(peerless) and not all(peerless)
        assert [w is not None for w in cluster._thieves] == peerless
        assert all(w is not None for w in cluster._victims)
        forwarding = Cluster(_cfg(protocol="forward"))
        assert forwarding._victims == [None] * 8
        assert all(w is not None for w in forwarding._thieves)
        lifelines = Cluster(_cfg(lifelines=2))
        assert lifelines._thieves == [None] * 8
        assert all(w is not None for w in lifelines._plain)
        traced = Cluster(_cfg(event_trace=True))
        assert traced._plain == traced._victims == traced._thieves == [None] * 8


class TestDeferral:
    """A running rank's quanta wait for the event that reaches it or
    for its wake, and are then caught up to that event's key."""

    # Three ranks, lifelines (so a stray register is protocol), chunks
    # small enough to steal from, and a wire slow enough that a
    # deferral lasts many quanta.
    TIE = dict(
        nranks=3,
        lifelines=2,
        chunk_size=4,
        poll_interval=2,
        latency_model=UniformLatency(1e-4),
    )

    def test_event_at_a_deferred_quantum_time(self):
        # Rank 1's deferred quantum at ``(t, 1, seq)`` runs before a
        # register keyed ``(t, 2, -2)`` and after one keyed
        # ``(t, 0, -2)``: the waiter is pushed to one poll apart.
        cfg = _cfg(**self.TIE)
        t, _seq = _passed_deferred_quantum(cfg, 1)
        plain = _result_json(cfg)
        runs = []
        for pusher in (0, 2):
            inject = [(t, pusher, -2, TAG_LIFELINE_REGISTER, 1, None)]
            engine = _result_json(cfg, inject=inject)
            assert engine == _result_json(cfg, True, inject=inject)
            assert engine != plain
            runs.append(engine)
        assert runs[0] != runs[1]

    def test_waiter_registered_mid_deferral_is_pushed_at_its_poll(self):
        cfg = _cfg(**self.TIE)
        t, _seq = _passed_deferred_quantum(cfg, 1)
        # Between two quanta: the catch-up runs the one at ``t``, the
        # next poll pushes.
        inject = [
            (t + cfg.per_node_time / 2, 0, -2, TAG_LIFELINE_REGISTER, 1, None)
        ]
        engine = _result_json(cfg, inject=inject)
        assert engine == _result_json(cfg, True, inject=inject)
        assert engine != _result_json(cfg)

    def test_stale_wakes_are_not_dropped_messages(self):
        # Wide nodes and slow ones: a rank stolen from runs dry long
        # before the wake its deferral left behind, and the job ends.
        wide = TreeParams(
            name="W", tree_type="binomial", root_seed=7, b0=300, m=8, q=0.11
        )
        cfg = _cfg(
            tree=wide, nranks=5, poll_interval=2, chunk_size=2,
            steal_policy="one", node_time=1e-4,
        )
        wakes = []

        class Spy(Cluster):
            def _broadcast_finish(self, when):
                wakes.append(sum(
                    1 for e in self._heap
                    if e[3] == TAG_EXEC and e[5] is not None
                ))
                super()._broadcast_finish(when)

        out = RunResult.from_outcome(Spy(cfg).run())
        assert wakes[0] > 0
        assert out.to_json() == oracle_result(cfg).to_json()
        assert out.messages_dropped == cfg.nranks

    def test_a_clock_a_quantum_does_not_move(self, monkeypatch):
        cfg = _cfg(poll_interval=2, node_time=1e-25)
        wakes = []
        original = heapq.heappushpop

        def spy(heap, item):
            if item[3] == TAG_EXEC and item[5] is not None:
                wakes.append(item)
            return original(heap, item)

        monkeypatch.setattr(heapq, "heappushpop", spy)
        engine = _result_json(cfg)
        out = RunResult.from_json(engine)
        # Late in the run a quantum leaves the clock where it was ...
        assert out.total_time + 2 * cfg.per_node_time == out.total_time
        # ... where no wake may be armed: each is strictly later than
        # the quantum its rank runs next.
        assert wakes and all(w[0] > w[5][0] for w in wakes)
        monkeypatch.undo()
        assert engine == _result_json(cfg, True)


class TestCallBudget:
    """Python-level calls per event, search- and expansion-dominated.

    A failed steal is two events — request at an idle rank, deny back
    at the thief — that the loop runs itself with ``send`` written out,
    NIC port arithmetic included, and costs four calls: one
    ``heappushpop`` per event, which also hands back the next event,
    and one ``next_victim`` and its ``len``.  That is 2.49 and 2.52
    calls per event with NIC contention off and on (4.39 and 7.33
    while each event popped, pushed and called ``send``, which called
    ``inject`` and ``deliver``; 5.84 and 8.79 while both halves went
    through ``Worker.on_message``).  The count is exact per seed, so a
    frame that creeps back onto that path fails here without a clock.
    """

    @pytest.mark.parametrize(
        "nic, budget", [(0.0, 2.6), (1e-7, 2.6)], ids=["nic-off", "nic-on"]
    )
    def test_calls_per_event(self, nic, budget):
        cluster = Cluster(
            _cfg(
                nranks=64,
                selector="tofu",
                steal_policy="half",
                nic_service_time=nic,
            )
        )
        profile = cProfile.Profile()
        out = profile.runcall(cluster.run)
        assert out.total_nodes == 4427
        calls = pstats.Stats(profile).total_calls
        assert calls / out.events_processed <= budget

    @pytest.mark.parametrize(
        "tree, budget", [(T3S, 3.6), (GEO_S, 4.35)], ids=["T3S", "GEO_S"]
    )
    def test_calls_per_expansion_event(self, tree, budget):
        """Expansion-dominated: at 8 ranks a quantum, run by the loop
        itself, is a slice of the rank's node list and one ``range``
        per popped node over the tree table's offsets, and most quanta
        run between wakes with no heap operation (3.57 and 4.28 calls
        per event; 3.82 and 4.57 with a ``heappushpop`` per quantum,
        5.62 and 6.28 with an ``expand`` call, a pop and a push, 7.26
        and 7.90 through ``Worker.on_exec``, 10.28 and 11.14 while a
        quantum went through chunk objects, 19.57 and 73.15 when it
        hashed its children in Python).  A per-child ``append`` is
        ~4.6 calls per event on T3S, the ndarray round trip far more
        on GEO_S.  The catch-up is in the loop, not a method: as a
        call per wake it was 4.27 and 4.85."""
        cluster = Cluster(_cfg(tree=tree, nranks=8))
        profile = cProfile.Profile()
        out = profile.runcall(cluster.run)
        assert out.total_nodes == sequential_count(tree).total_nodes
        calls = pstats.Stats(profile).total_calls
        assert calls / out.events_processed <= budget

    def test_heap_operations_per_quantum(self, monkeypatch):
        """At the ledger's ``poll_interval = 2`` most quanta run
        between wakes: 0.44 heap operations per quantum on T3S at 8
        ranks, messages included (1.17 when every quantum was a heap
        event).  Nothing else would show it if deferral stopped."""
        cfg = _cfg(tree=T3S, poll_interval=2)
        profile = cProfile.Profile()
        profile.runcall(Cluster(cfg).run)
        heap_ops = sum(
            calls
            for (_file, _line, name), (_cc, calls, *_rest) in
            pstats.Stats(profile).stats.items()
            if name.startswith("<built-in method _heapq.heap")
        )
        # The quanta: every EXEC of the ``Worker`` path's run.
        execs = Counter()
        original = Cluster.schedule_exec

        def counting_schedule_exec(self, rank, when):
            execs[rank] += 1
            original(self, rank, when)

        monkeypatch.setattr(Cluster, "schedule_exec", counting_schedule_exec)
        _result_json(cfg, worker_path=True)
        assert heap_ops / sum(execs.values()) <= 0.5
