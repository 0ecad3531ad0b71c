"""The quiescent tail is walked off the heap and comes out as the heap's.

Once no rank runs and no grant is on the wire, ``Cluster.run`` pulls
every request and deny off the heap and, when the token declares, runs
each thief's chain on its own up to the declaring key
(``Cluster._walk``).  These tests hold that run to the ``Worker`` path,
which never walks, and to the oracle: at exact ties with the declaring
token (a flat topology with one dyadic wire time, where every time is
exact and ties are everywhere), at an event budget the tail crosses or
a token that never comes, and on every configuration the walk must
leave alone.
"""

from __future__ import annotations

from unittest import mock

import pytest

import repro.protocol.factory as factory_mod
import repro.sim.cluster as cluster_mod
from repro.core.config import WorkStealingConfig
from repro.errors import SimulationError
from repro.net.latency import HierarchicalLatency, UniformLatency
from repro.protocol.core import Worker
from repro.sim.cluster import Cluster
from repro.uts.params import T3XS
from repro.ws.results import RunResult
from tests.sim.fakes import WorkerPath
from tests.sim.oracle import oracle_result

#: About a microsecond, and exact: sums of it never round.
_TICK = 2.0**-20


def _flat(nranks: int, seed: int) -> WorkStealingConfig:
    return WorkStealingConfig(
        tree=T3XS,
        nranks=nranks,
        selector="rand",
        seed=seed,
        topology_factory="flat",
        latency_model=UniformLatency(_TICK),
        node_time=_TICK,
        steal_service_time=_TICK,
        transfer_time_per_node=0.0,
    )


def _run(cfg, worker_path=False, cluster=Cluster, max_events=None):
    """``(to_json(), outcome)`` of one run."""
    with mock.patch.object(
        factory_mod, "Worker", WorkerPath if worker_path else Worker
    ):
        engine = cluster(cfg, max_events=max_events)
    out = engine.run()
    return RunResult.from_outcome(out).to_json(), out


class TestTies:
    """An event from rank N-1 at the declaring time comes before the
    token's key exactly when N-1 pushed it first, which the walk reads
    off the two events' ancestors."""

    @pytest.mark.parametrize(
        "nranks, seed, outcomes",
        [
            (3, 9, {True, False}),
            (4, 1, {True, False}),
            # Settled three levels back: a deny from rank 3, its request
            # from rank 2 and the deny before it from rank 1 all meet
            # the token's events at the same times.
            (4, 6, {True, False}),
            (16, 0, {True}),
            (16, 18, {False}),
        ],
        ids=["3-both", "4-both", "4-three-back", "16-first", "16-after"],
    )
    def test_tie_with_the_declaring_token(
        self, monkeypatch, nranks, seed, outcomes
    ):
        cfg = _flat(nranks, seed)
        seen = []
        original = cluster_mod._chain_first

        def spy(*args):
            first = original(*args)
            seen.append(first)
            return first

        monkeypatch.setattr(cluster_mod, "_chain_first", spy)
        engine, out = _run(cfg)
        # The case occurred, settled both ways where listed.
        assert set(seen) == outcomes
        assert out.events_walked > 0
        assert engine == _run(cfg, worker_path=True)[0]
        assert engine == oracle_result(cfg).to_json()

    def test_ties_are_everywhere(self):
        # Every time is a whole number of ticks: the chains and the
        # token meet at the declaring time on most seeds, and each run
        # is the ``Worker`` path's.
        for nranks in (3, 4, 16):
            for seed in range(6):
                cfg = _flat(nranks, seed)
                assert _run(cfg)[0] == _run(cfg, worker_path=True)[0]


class TestBudget:
    def test_budget_inside_the_tail(self):
        cfg = WorkStealingConfig(tree=T3XS, nranks=16, selector="tofu")
        _, out = _run(cfg)
        n, walked = out.events_processed, out.events_walked
        assert walked > 0
        assert _run(cfg, max_events=n)[1].events_processed == n
        for budget in (n - 1, n - walked // 2, n - walked + 1):
            for worker_path in (False, True):
                with pytest.raises(
                    SimulationError, match=f"exceeded {budget} events"
                ):
                    _run(cfg, worker_path, max_events=budget)

    def test_heap_drains_with_the_chains_pulled(self):
        # Without a token nothing ends the chains: the ``Worker`` path
        # fails steals until the budget runs out, and the walk, whose
        # heap drains once the chains are off it, raises the same.
        pulled = []

        class Tokenless(Cluster):
            def _dispatch_token_action(self, src, action, when):
                pass

            def _pull_chains(self):
                chains = super()._pull_chains()
                pulled.append(chains)
                return chains

        cfg = WorkStealingConfig(tree=T3XS, nranks=8)
        budget = 3 * _run(cfg)[1].events_processed
        for worker_path in (False, True):
            with pytest.raises(
                SimulationError, match=f"exceeded {budget} events"
            ):
                _run(cfg, worker_path, cluster=Tokenless, max_events=budget)
        assert len(pulled) == 1 and len(pulled[0]) == cfg.nranks


def _spy_on_the_pull(monkeypatch) -> list:
    """What each ``Cluster._pull_chains`` call returns, from now on."""
    pulled = []
    original = Cluster._pull_chains

    def spy(self):
        pulled.append(original(self))
        return pulled[-1]

    monkeypatch.setattr(Cluster, "_pull_chains", spy)
    return pulled


class TestEligibility:
    """Anything that couples the chains, or takes a rank off the
    loop's inline steps, keeps the whole run on the heap."""

    BASE = dict(tree=T3XS, nranks=8, selector="tofu")

    @pytest.mark.parametrize(
        "change",
        [
            dict(nic_service_time=1e-7),
            dict(event_trace=True),
            dict(protocol="forward"),
            dict(lifelines=2),
            dict(regions=2),
            dict(
                allocation="4G",
                latency_model=HierarchicalLatency(intra_node=0.0),
            ),
            dict(nranks=2),
            # A selector that takes feedback cannot be drawn ahead.
            dict(selector="adapt-sr[0.9]"),
            dict(selector="lastvictim"),
            "worker-subclass",
            "send-patch",
        ],
        ids=[
            "nic", "event_trace", "forward", "lifelines", "regions",
            "intra_node-0", "nranks-2", "adapt-sr", "lastvictim",
            "worker-subclass", "send-patch",
        ],
    )
    def test_never_walks(self, monkeypatch, change):
        kw = dict(self.BASE)
        if isinstance(change, dict):
            kw.update(change)
        cfg = WorkStealingConfig(**kw)
        base = dict(self.BASE, nranks=3) if kw["nranks"] == 2 else self.BASE
        assert _run(WorkStealingConfig(**base))[1].events_walked > 0
        if change == "send-patch":
            send = Cluster.send
            monkeypatch.setattr(
                Cluster, "send", lambda self, *args: send(self, *args)
            )

        pulled = _spy_on_the_pull(monkeypatch)
        _, out = _run(cfg, worker_path=change == "worker-subclass")
        # Not reached, or (a zero wire time) declined.
        assert pulled in ([], [None])
        assert out.events_walked == 0

    def test_zero_wire_time_in_the_model_keeps_the_heap(self, monkeypatch):
        # ``1/N`` puts no two ranks on a node, so no pair pays the zero;
        # the model's table has it all the same, and the run declines
        # the walk when it turns quiescent.
        cfg = WorkStealingConfig(
            **self.BASE, latency_model=HierarchicalLatency(intra_node=0.0)
        )
        pulled = _spy_on_the_pull(monkeypatch)
        engine, out = _run(cfg)
        assert pulled == [None] and out.events_walked == 0
        assert engine == _run(cfg, worker_path=True)[0]


class TestEventsWalked:
    def test_share_is_a_raw_count(self):
        cfg = WorkStealingConfig(
            tree=T3XS, nranks=64, selector="tofu", steal_policy="half"
        )
        engine, out = _run(cfg)
        # A quarter of a 64-rank run is its tail; it is not a result
        # field, so the bytes are the ``Worker`` path's, which walks
        # nothing.
        assert 0.2 < out.events_walked / out.events_processed < 0.3
        reference, path = _run(cfg, worker_path=True)
        assert path.events_walked == 0
        assert engine == reference
        assert "events_walked" not in engine
