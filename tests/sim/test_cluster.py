"""Integration tests: full simulations, end to end.

The central invariant — the strongest test in the suite — is node
conservation: the distributed traversal must count exactly the same
tree the sequential traversal counts, for every victim selector, steal
policy, allocation and rank count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import WorkStealingConfig
from repro.core.metrics import OccupancyCurve
from repro.protocol.core import WorkerStatus
from repro.sim.cluster import Cluster
from repro.uts.params import GEO_S, T3XS, TreeParams
from repro.uts.sequential import sequential_count
from repro.ws.results import RunResult

SEQ_T3XS = sequential_count(T3XS)


def run(tree=T3XS, **kw) -> tuple:
    cfg = WorkStealingConfig(tree=tree, **kw)
    return Cluster(cfg).run(), cfg


class TestConservation:
    @pytest.mark.parametrize("nranks", [1, 2, 3, 4, 8, 16, 33])
    def test_across_rank_counts(self, nranks):
        out, _ = run(nranks=nranks)
        assert out.total_nodes == SEQ_T3XS.total_nodes

    @pytest.mark.parametrize(
        "selector", ["reference", "rand", "tofu", "skew[2]", "hierarchical", "lastvictim"]
    )
    def test_across_selectors(self, selector):
        out, _ = run(nranks=8, selector=selector)
        assert out.total_nodes == SEQ_T3XS.total_nodes

    @pytest.mark.parametrize("policy", ["one", "half", "frac[0.3]"])
    def test_across_policies(self, policy):
        out, _ = run(nranks=8, steal_policy=policy)
        assert out.total_nodes == SEQ_T3XS.total_nodes

    @pytest.mark.parametrize("alloc", ["1/N", "8RR", "8G"])
    def test_across_allocations(self, alloc):
        out, _ = run(nranks=16, allocation=alloc)
        assert out.total_nodes == SEQ_T3XS.total_nodes

    def test_geometric_tree(self):
        seq = sequential_count(GEO_S)
        out, _ = run(tree=GEO_S, nranks=8, selector="rand")
        assert out.total_nodes == seq.total_nodes

    def test_sha1_backend(self):
        seq = sequential_count(T3XS, backend=None)
        from repro.uts.rng import Sha1Backend

        seq_sha = sequential_count(T3XS, backend=Sha1Backend())
        out, _ = run(nranks=4, rng_backend="sha1")
        assert out.total_nodes == seq_sha.total_nodes

    def test_with_contention_and_skew(self):
        out, _ = run(
            nranks=8,
            nic_service_time=5e-7,
            clock_skew_std=1e-5,
            trace=True,
        )
        assert out.total_nodes == SEQ_T3XS.total_nodes

    @pytest.mark.parametrize("chunk_size", [1, 5, 20, 100])
    def test_across_chunk_sizes(self, chunk_size):
        out, _ = run(nranks=8, chunk_size=chunk_size)
        assert out.total_nodes == SEQ_T3XS.total_nodes

    @pytest.mark.parametrize("poll", [1, 3, 50])
    def test_across_poll_intervals(self, poll):
        out, _ = run(nranks=8, poll_interval=poll)
        assert out.total_nodes == SEQ_T3XS.total_nodes


class TestDeterminism:
    def test_same_config_same_run(self):
        a, _ = run(nranks=8, selector="rand", seed=3)
        b, _ = run(nranks=8, selector="rand", seed=3)
        assert a.total_time == b.total_time
        assert a.events_processed == b.events_processed
        for wa, wb in zip(a.workers, b.workers):
            assert wa.nodes_processed == wb.nodes_processed
            assert wa.failed_steals == wb.failed_steals

    def test_different_seed_different_run(self):
        a, _ = run(nranks=8, selector="rand", seed=3)
        b, _ = run(nranks=8, selector="rand", seed=4)
        # Random victim choices differ -> schedules differ.
        assert any(
            wa.nodes_processed != wb.nodes_processed
            for wa, wb in zip(a.workers, b.workers)
        )


class TestTerminationEndToEnd:
    def test_all_workers_done(self):
        out, _ = run(nranks=8)
        for w in out.workers:
            assert w.status is WorkerStatus.DONE
            assert w.stack.is_empty
            assert w.finish_time is not None

    def test_finish_times_ordered_by_latency(self):
        out, _ = run(nranks=8)
        t0 = out.workers[0].finish_time
        assert all(w.finish_time >= t0 for w in out.workers)
        assert out.total_time == max(w.finish_time for w in out.workers)

    def test_single_rank(self):
        out, _ = run(nranks=1)
        assert out.total_nodes == SEQ_T3XS.total_nodes
        assert out.workers[0].failed_steals == 0
        assert out.total_time == pytest.approx(
            SEQ_T3XS.total_nodes * 1e-6, rel=0.01
        )

    def test_probes_reported(self):
        out, _ = run(nranks=8)
        assert out.probes_started >= 1


class TestSpeedup:
    def test_parallel_faster_than_serial(self):
        t1 = run(nranks=1)[0].total_time
        t8 = run(nranks=8)[0].total_time
        assert t8 < t1 / 2  # at least 2x on 8 ranks

    def test_work_is_distributed(self):
        out, _ = run(nranks=8)
        sharers = sum(1 for w in out.workers if w.nodes_processed > 0)
        assert sharers == 8


class TestTraces:
    def test_trace_validates_and_occupancy_sane(self):
        out, _ = run(nranks=8, trace=True)
        trace = RunResult.from_outcome(out).trace
        curve = OccupancyCurve(trace, 8, out.total_time)
        assert 0 < curve.max_workers <= 8
        assert 0.0 < curve.average_occupancy() <= 1.0

    def test_no_trace_by_default(self):
        out, _ = run(nranks=4)
        assert RunResult.from_outcome(out).trace is None

    def test_skewed_trace_corrects_back(self):
        skewed = RunResult.from_outcome(
            run(nranks=8, trace=True, clock_skew_std=1e-4, seed=7)[0]
        ).trace
        true = RunResult.from_outcome(run(nranks=8, trace=True, seed=7)[0]).trace
        # Skew moves no event; the corrected stamps differ from the
        # true ones only by the rounding of the round trip.
        for (ts, ss), (tt, st) in zip(skewed.transitions, true.transitions):
            assert np.array_equal(ss, st)
            assert np.abs(ts - tt).max(initial=0.0) <= 1e-15

    def test_busy_time_close_to_work_time(self):
        out, cfg = run(nranks=4, trace=True)
        trace = RunResult.from_outcome(out).trace
        for w in out.workers:
            busy = trace.busy_time(w.rank, out.total_time)
            work = w.nodes_processed * cfg.per_node_time
            # Busy phases include steal servicing, so busy >= work.
            assert busy >= work * 0.99


class TestSessions:
    def test_sessions_recorded(self):
        out, _ = run(nranks=8)
        total_sessions = sum(len(w.idle_starts) for w in out.workers)
        assert total_sessions >= 7  # everyone but rank 0 searches at start

    def test_final_sessions_unsuccessful(self):
        out, _ = run(nranks=8)
        for w in out.workers:
            assert w.idle_ends[-1] == w.finish_time  # closed by Finish

    def test_search_time_bounded_by_runtime(self):
        out, _ = run(nranks=8)
        search = RunResult.from_outcome(out).per_rank_search_time
        assert np.all(search >= 0.0)
        assert np.all(search <= out.total_time * (1 + 1e-9))


class TestStats:
    def test_steal_accounting_balances(self):
        out, _ = run(nranks=8)
        served = sum(w.requests_served for w in out.workers)
        succeeded = sum(w.successful_steals for w in out.workers)
        assert served == succeeded
        sent_nodes = sum(w.nodes_sent for w in out.workers)
        recv_nodes = sum(w.nodes_received for w in out.workers)
        assert sent_nodes == recv_nodes

    def test_failed_bounded_by_requests(self):
        out, _ = run(nranks=8)
        for w in out.workers:
            assert (
                w.failed_steals + w.successful_steals <= w.steal_requests_sent
            )

    def test_node_cap_enforced(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            run(nranks=4, node_cap=100)
