"""Cross-module property tests: conservation and determinism under
randomly drawn configurations.

These are the suite's strongest correctness checks: whatever
combination of tree, strategies and cluster shape hypothesis draws,
the distributed run must (a) terminate, (b) count exactly the
sequential tree, (c) be reproducible.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import WorkStealingConfig
from repro.sim.cluster import Cluster
from repro.uts.params import TreeParams
from repro.uts.sequential import sequential_count

# Small trees (hundreds to a few thousand nodes) keep each drawn case
# fast while still exercising steals, denials and termination races.
trees = st.builds(
    lambda seed, b0, q: TreeParams(
        name="h", tree_type="binomial", root_seed=seed, b0=b0, m=2, q=q
    ),
    seed=st.integers(min_value=0, max_value=10_000),
    b0=st.integers(min_value=5, max_value=80),
    q=st.floats(min_value=0.1, max_value=0.45),
)

configs = st.fixed_dictionaries(
    {
        "nranks": st.integers(min_value=1, max_value=12),
        "selector": st.sampled_from(
            ["reference", "rand", "tofu", "lastvictim", "hierarchical"]
        ),
        "steal_policy": st.sampled_from(["one", "half", "frac[0.4]"]),
        "allocation": st.sampled_from(["1/N", "4RR", "4G"]),
        "chunk_size": st.integers(min_value=1, max_value=30),
        "poll_interval": st.integers(min_value=1, max_value=20),
        "seed": st.integers(min_value=0, max_value=100),
        "lifelines": st.sampled_from([0, 0, 0, 2]),
    }
)

_seq_cache: dict[tuple, int] = {}


def _sequential_nodes(tree: TreeParams) -> int:
    key = (tree.root_seed, tree.b0, tree.q)
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


@given(trees, configs)
@settings(max_examples=15, deadline=None)
def test_determinism_under_random_configs(tree, kw):
    a = Cluster(WorkStealingConfig(tree=tree, **kw)).run()
    b = Cluster(WorkStealingConfig(tree=tree, **kw)).run()
    assert a.total_time == b.total_time
    assert a.events_processed == b.events_processed


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
