"""Cross-module property tests: conservation and determinism under
randomly drawn configurations.

These are the suite's strongest correctness checks: whatever
combination of tree, strategies, protocol and cluster shape hypothesis
draws, the distributed run must (a) terminate, (b) count exactly the
sequential tree, (c) be reproducible byte for byte, (d) be the run
every event of which goes through the ``Worker`` methods, and (e) end
with the engine's quiescence count at 0.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.protocol.factory as factory_mod
from repro.core.config import WorkStealingConfig
from repro.net.latency import UniformLatency
from repro.sim.cluster import Cluster
from repro.uts.params import T3S, T3XS, TreeParams
from repro.uts.sequential import sequential_count
from repro.ws.results import RunResult
from tests.sim.fakes import WorkerPath

# Small trees (tens to a few thousand nodes) keep each drawn case fast
# while still exercising steals, denials and termination races.  Wide
# nodes (``m`` up to 8) and roots (``b0`` up to 400) give deeper stacks,
# so quanta run between wakes.  A quarter of the cases run T3S (8e4
# nodes): only a tree that large breaks runs of sibling indices at
# chunk ends often enough to test what a quantum may expand as one
# range.
trees = st.one_of(
    st.builds(
        lambda seed, b0, m, qm: TreeParams(
            name="h", tree_type="binomial", root_seed=seed, b0=b0, m=m,
            q=qm / m,
        ),
        seed=st.integers(min_value=0, max_value=10_000),
        b0=st.integers(min_value=5, max_value=400),
        m=st.sampled_from([2, 4, 8]),
        qm=st.floats(min_value=0.2, max_value=0.9),
    ),
    st.sampled_from([T3XS, T3S]),
)

# Flat or Tofu nodes, and one wire time for every pair (the flat
# topology's only model) or the hierarchical default.  A dyadic wire
# time on a flat machine puts many events at equal times, the
# quiescent tail's ties with the declaring token among them.
networks = st.sampled_from(
    [
        {"topology_factory": "tofu"},
        {"topology_factory": "tofu", "latency_model": UniformLatency()},
        {"topology_factory": "flat", "latency_model": UniformLatency()},
        {
            "topology_factory": "flat",
            "latency_model": UniformLatency(2.0**-20),
        },
    ]
)

configs = st.builds(
    lambda kw, network: {**kw, **network},
    st.fixed_dictionaries(
        {
            "nranks": st.integers(min_value=1, max_value=40),
            "selector": st.sampled_from(
                ["reference", "rand", "tofu", "lastvictim", "hierarchical"]
            ),
            "steal_policy": st.sampled_from(["one", "half", "frac[0.4]"]),
            "allocation": st.sampled_from(["1/N", "4RR", "4G"]),
            "chunk_size": st.integers(min_value=1, max_value=30),
            "poll_interval": st.integers(min_value=1, max_value=20),
            "seed": st.integers(min_value=0, max_value=100),
            "lifelines": st.sampled_from([0, 0, 0, 2]),
            "protocol": st.sampled_from(["steal", "steal", "forward"]),
            "regions": st.sampled_from([0, 0, 3]),
            "nic_service_time": st.sampled_from([0.0, 1e-7]),
            # The last is so small that a quantum does not move the clock
            # (``t + n * per_node_time == t``).
            "node_time": st.sampled_from([1e-6, 1e-6, 3e-8, 1e-25]),
        }
    ),
    networks,
)

_seq_cache: dict[tuple, int] = {}


def _sequential_nodes(tree: TreeParams) -> int:
    key = (tree.root_seed, tree.b0, tree.m, tree.q)
    if key not in _seq_cache:
        _seq_cache[key] = sequential_count(tree).total_nodes
    return _seq_cache[key]


@given(trees, configs)
@settings(max_examples=60, deadline=None)
def test_conservation_under_random_configs(tree, kw):
    expected = _sequential_nodes(tree)
    cfg = WorkStealingConfig(tree=tree, **kw)
    out = Cluster(cfg).run()
    assert out.total_nodes == expected
    assert all(w.stack.is_empty for w in out.workers)


def _result_json(cfg: WorkStealingConfig) -> str:
    return RunResult.from_outcome(Cluster(cfg).run()).to_json()


@given(trees, configs)
@settings(max_examples=15, deadline=None)
def test_determinism_under_random_configs(tree, kw):
    cfg = WorkStealingConfig(tree=tree, **kw)
    assert _result_json(cfg) == _result_json(cfg)


# Each example runs two engines; ``--hypothesis-profile deep`` (see
# ``tests/conftest.py``) raises the budget with the profile's.
@given(trees, configs)
# Lifeline pushes that land on running ranks, each of which closes a
# grant in the quiescence count.
@example(T3XS, {"nranks": 16, "seed": 1, "selector": "rand", "lifelines": 2})
@settings(max_examples=settings.default.max_examples // 2, deadline=None)
def test_engine_matches_the_worker_path(tree, kw):
    cfg = WorkStealingConfig(tree=tree, **kw)
    cluster = Cluster(cfg)
    out = cluster.run()
    # The one quiescence count ends at 0, and reached it when the last
    # rank went idle for good.
    assert cluster._live == 0
    assert out.quiescent_time == max(w.idle_starts[-1] for w in out.workers)
    engine = RunResult.from_outcome(out).to_json()
    with mock.patch.object(factory_mod, "Worker", WorkerPath):
        cluster = Cluster(cfg)
        assert cluster._plain == [None] * cfg.nranks
        reference = RunResult.from_outcome(cluster.run()).to_json()
    assert engine == reference


@given(trees)
@settings(max_examples=20, deadline=None)
def test_traced_occupancy_consistent(tree):
    """Traced runs: busy time summed over ranks equals compute time
    plus steal service — no phantom activity."""
    cfg = WorkStealingConfig(tree=tree, nranks=6, selector="rand", trace=True)
    out = Cluster(cfg).run()
    from repro.ws.results import RunResult

    trace = RunResult.from_outcome(out).trace
    total_busy = sum(
        trace.busy_time(r, out.total_time) for r in range(cfg.nranks)
    )
    compute = out.total_nodes * cfg.per_node_time
    service = sum(w.service_time for w in out.workers)
    assert total_busy == pytest.approx(compute + service, rel=1e-6, abs=1e-9)
