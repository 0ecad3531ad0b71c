"""Tests for the lifeline-based load balancing extension."""

from __future__ import annotations

import pytest

from repro.core.config import WorkStealingConfig
from repro.errors import ConfigurationError
from repro.protocol.graphs import hypercube_partners
from repro.sim.cluster import Cluster
from repro.uts.params import T3XS
from repro.uts.sequential import sequential_count
from repro.ws import run_uts

SEQ = sequential_count(T3XS)


class TestPartnerGraph:
    def test_power_of_two_offsets(self):
        assert hypercube_partners(0, 16, 4) == [1, 2, 4, 8]

    def test_wraps(self):
        assert hypercube_partners(14, 16, 3) == [15, 0, 2]

    def test_never_self(self):
        for n in (2, 3, 5, 8, 17):
            for rank in range(n):
                assert rank not in hypercube_partners(rank, n, 6)

    def test_count_capped(self):
        assert len(hypercube_partners(0, 1024, 3)) == 3

    def test_small_world(self):
        assert hypercube_partners(0, 2, 5) == [1]

    def test_connectivity(self):
        """Following lifelines reaches every rank (work percolates)."""
        n = 32
        reached = {0}
        frontier = [0]
        while frontier:
            r = frontier.pop()
            for p in hypercube_partners(r, n, 5):
                if p not in reached:
                    reached.add(p)
                    frontier.append(p)
        assert reached == set(range(n))


class TestLifelineRuns:
    def test_conservation(self):
        r = run_uts(
            tree=T3XS, nranks=8, selector="rand", lifelines=2,
            lifeline_threshold=4,
        )
        assert r.total_nodes == SEQ.total_nodes

    def test_conservation_half_policy(self):
        r = run_uts(
            tree=T3XS, nranks=16, selector="tofu", steal_policy="half",
            lifelines=3, lifeline_threshold=2,
        )
        assert r.total_nodes == SEQ.total_nodes

    def test_reduces_failed_steals(self):
        """The scheme's whole point: idle ranks stop hammering."""
        base = run_uts(tree=T3XS, nranks=8, selector="rand", seed=1)
        life = run_uts(
            tree=T3XS, nranks=8, selector="rand", seed=1, lifelines=2,
            lifeline_threshold=4,
        )
        assert life.failed_steals < base.failed_steals / 2

    def test_workers_are_lifeline_class(self):
        cfg = WorkStealingConfig(tree=T3XS, nranks=4, lifelines=2)
        workers = Cluster(cfg).run().workers
        assert all(w.partners for w in workers)

    def test_pushes_and_quiesces_recorded(self):
        cfg = WorkStealingConfig(
            tree=T3XS, nranks=8, selector="rand", lifelines=2,
            lifeline_threshold=2,
        )
        workers = Cluster(cfg).run().workers
        assert sum(w.quiesce_episodes for w in workers) > 0
        assert sum(w.lifeline_pushes for w in workers) > 0

    def test_determinism(self):
        a = run_uts(tree=T3XS, nranks=8, lifelines=2, seed=5)
        b = run_uts(tree=T3XS, nranks=8, lifelines=2, seed=5)
        assert a.total_time == b.total_time


class TestConfigValidation:
    def test_negative_lifelines(self):
        with pytest.raises(ConfigurationError):
            WorkStealingConfig(tree=T3XS, nranks=4, lifelines=-1)

    def test_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            WorkStealingConfig(tree=T3XS, nranks=4, lifeline_threshold=0)

    def test_disabled_by_default(self):
        cfg = WorkStealingConfig(tree=T3XS, nranks=4)
        assert cfg.lifelines == 0
        workers = Cluster(cfg).run().workers
        assert not any(w.partners for w in workers)
