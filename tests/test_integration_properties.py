"""Cross-module property tests: conservation, determinism, agreement
with the reference oracle and time rescaling under randomly drawn
configurations.

These are the suite's strongest correctness checks: whatever
combination of tree, strategies, protocol and cluster shape hypothesis
draws, the distributed run must (a) terminate, (b) count exactly the
sequential tree, (c) be reproducible byte for byte, (d) be the run of
the plain single-queue oracle (``tests/sim/oracle.py``) bit for bit,
(e) end with the engine's quiescence count at 0, and (f) scale with
every time constant: no absolute time may hide in the physics.

``configs`` draws every selector and steal-policy spec the registry
lists (a template's parameter from ``_PARAMS``), every allocation and
lifeline graph and RNG backend, and every protocol, NIC and trace knob
the engine branches on; ``test_every_registered_strategy_is_drawn``
holds it to the registry.
"""

from __future__ import annotations

import re
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import registry
from repro.core.config import WorkStealingConfig
from repro.net.latency import HierarchicalLatency, UniformLatency
from repro.sim.cluster import Cluster
from repro.uts.params import GEO_S, HYB_S, T3S, T3XS, TreeParams
from repro.uts.sequential import sequential_count
from repro.ws.results import RunResult
from tests.sim.oracle import assert_identical

# Small trees (tens to a few thousand nodes) keep each drawn case fast
# while still exercising steals, denials and termination races.  Wide
# nodes (``m`` up to 8) and roots (``b0`` up to 400) give deeper stacks,
# so quanta run between wakes.  An eighth of the cases run T3S (8e4
# nodes): only a tree that large breaks runs of sibling indices at
# chunk ends often enough to test what a quantum may expand as one
# range.  GEO_S and HYB_S are the geometric and hybrid shapes.
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
    st.sampled_from([T3XS, T3S, GEO_S, HYB_S]),
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

#: The values a template's ``<placeholder>`` is drawn from: each
#: range's edges and one value inside.
_PARAMS = {
    "alpha": [0, 1, 1.5],
    "p_near": [0, 0.7, 1],
    "eps": [0, 0.2, 1],
    "decay": [0.5, 0.9, 0.99],
    "fails": [1, 2, 3],
    "fraction": [0.3, 0.4, 1],
}

_PLACEHOLDER = re.compile(r"<(\w+)>")

#: Every spec the registry lists, read once; the guard test below
#: fails when a module registers one after this import.
SPECS = {kind: registry.available(kind) for kind in ("selector", "steal_policy")}


def _instances(name: str) -> list[str]:
    """``name`` itself, or the template with each ``_PARAMS`` value."""
    match = _PLACEHOLDER.search(name)
    if match is None:
        return [name]
    return [
        name.replace(match.group(0), str(value))
        for value in _PARAMS[match.group(1)]
    ]


def _specs(kind: str):
    """A registered spec of ``kind``, each equally likely, then its
    parameter."""
    return st.sampled_from(SPECS[kind]).flatmap(
        lambda name: st.sampled_from(_instances(name))
    )


def _config(kw: dict, network: dict) -> dict:
    """The drawn fields, with ``nranks`` spread over 2..40.

    Hypothesis runs a few mutants of each new example, copies that
    differ from it in one span, so a rank count drawn on its own
    repeats with its parent's: some counts came up 1.0% of a 4,000-draw
    count and others 4.3%.  Mixed from every drawn field (a mutant
    differs from its parent in one at least), each count came up
    1.8-3.5% in eight such counts, near what independent uniform draws
    give: the least of 39 counts of 4,000 has a median of 2.05% and
    falls below 2% in about 3 counts of 10.  One rank makes no steal:
    it runs only as the oracle's ``@example``.
    """
    mixed = zlib.crc32(repr(sorted(kw.items())).encode())
    return {**kw, **network, "nranks": 2 + mixed % 39}


configs = st.builds(
    _config,
    st.fixed_dictionaries(
        {
            # Mixed into the rank count (``_config``).
            "nranks": st.integers(min_value=0, max_value=38),
            "selector": _specs("selector"),
            "steal_policy": _specs("steal_policy"),
            "allocation": st.sampled_from(registry.available("allocation")),
            "chunk_size": st.integers(min_value=1, max_value=30),
            # 100 takes a quantum across several chunks.
            "poll_interval": st.sampled_from([*range(1, 21), 100]),
            "seed": st.integers(min_value=0, max_value=100),
            "rng_backend": st.sampled_from(registry.available("rng_backend")),
            "lifelines": st.sampled_from([0, 0, 0, 2, 3]),
            "lifeline_graph": st.sampled_from(
                registry.available("lifeline_graph")
            ),
            "protocol": st.sampled_from(["steal", "steal", "forward"]),
            "forward_ttl": st.integers(min_value=1, max_value=3),
            # Some of 16 regions hold one rank, whose failed steals
            # the engine's loop runs.
            "regions": st.sampled_from([0, 0, 3, 4, 8, 16]),
            "region_attempts": st.integers(min_value=1, max_value=3),
            # 5e-7 is five times the calibrated cost: queues form.
            "nic_service_time": st.sampled_from([0.0, 1e-7, 5e-7]),
            # The last is so small that a quantum does not move the clock
            # (``t + n * per_node_time == t``).
            "node_time": st.sampled_from([1e-6, 1e-6, 3e-8, 1e-25]),
            "trace": st.booleans(),
            "clock_skew_std": st.sampled_from([0.0, 1e-7]),
            "event_trace": st.booleans(),
        }
    ),
    networks,
)


def test_every_registered_strategy_is_drawn():
    for kind, names in SPECS.items():
        assert names == registry.available(kind)
        for name in names:
            for spec in _instances(name):
                registry.resolve(kind, spec)


_seq_cache: dict[tuple, int] = {}


def _sequential_nodes(tree: TreeParams, backend: str) -> int:
    key = (tree, backend)
    if key not in _seq_cache:
        _seq_cache[key] = sequential_count(
            tree, registry.resolve("rng_backend", backend)
        ).total_nodes
    return _seq_cache[key]


@given(trees, configs)
@settings(max_examples=60, deadline=None)
def test_conservation_under_random_configs(tree, kw):
    expected = _sequential_nodes(tree, kw["rng_backend"])
    cfg = WorkStealingConfig(tree=tree, **kw)
    out = Cluster(cfg).run()
    assert out.total_nodes == expected
    assert all(w.stack.is_empty for w in out.workers)


def _run(cfg: WorkStealingConfig) -> RunResult:
    return RunResult.from_outcome(Cluster(cfg).run())


@given(trees, configs)
@settings(max_examples=15, deadline=None)
def test_determinism_under_random_configs(tree, kw):
    cfg = WorkStealingConfig(tree=tree, **kw)
    assert _run(cfg).to_json() == _run(cfg).to_json()


# Each example runs the oracle and one or two engine runs;
# ``--hypothesis-profile deep`` (see ``tests/conftest.py``) raises the
# budget with the profile's.
@given(trees, configs)
# Lifeline pushes that land on running ranks, each of which closes a
# grant in the quiescence count.
@example(T3XS, {"nranks": 16, "seed": 1, "selector": "rand", "lifelines": 2})
# A single rank: no victim, no steal, one token.
@example(T3XS, {"nranks": 1, "event_trace": True})
@settings(max_examples=settings.default.max_examples // 2, deadline=None)
def test_engine_matches_the_oracle(tree, kw):
    cfg = WorkStealingConfig(tree=tree, **kw)
    cluster = Cluster(cfg)
    out = cluster.run()
    # The one quiescence count ends at 0, and reached it when the last
    # rank went idle for good.
    assert cluster._live == 0
    assert out.quiescent_time == max(w.idle_starts[-1] for w in out.workers)
    assert_identical(cfg, RunResult.from_outcome(out))


@given(trees)
@settings(max_examples=20, deadline=None)
def test_traced_occupancy_consistent(tree):
    """Traced runs: busy time summed over ranks equals compute time
    plus steal service — no phantom activity."""
    cfg = WorkStealingConfig(tree=tree, nranks=6, selector="rand", trace=True)
    out = Cluster(cfg).run()
    trace = RunResult.from_outcome(out).trace
    total_busy = sum(
        trace.busy_time(r, out.total_time) for r in range(cfg.nranks)
    )
    compute = out.total_nodes * cfg.per_node_time
    service = sum(w.service_time for w in out.workers)
    assert total_busy == pytest.approx(compute + service, rel=1e-6, abs=1e-9)


#: Every time constant of a config; the latency model holds the rest.
_TIMES = (
    "node_time",
    "steal_service_time",
    "transfer_time_per_node",
    "nic_service_time",
    "clock_skew_std",
)


def _rescaled(cfg: WorkStealingConfig, c: float) -> WorkStealingConfig:
    """``cfg`` with every time constant multiplied by ``c``."""
    latency = cfg.latency_model.to_spec()
    return cfg.replace(
        latency_model={
            name: value if name == "kind" else value * c
            for name, value in latency.items()
        },
        **{name: getattr(cfg, name) * c for name in _TIMES},
    )


@given(trees, configs, st.sampled_from([-10, 10]))
@settings(max_examples=settings.default.max_examples // 20, deadline=None)
def test_time_rescaling_is_exact(tree, kw, k):
    """Scaling every time constant by ``2**k`` scales every time by
    exactly ``2**k`` and changes no count."""
    # The default model is a fixed calibration; its explicit twin
    # carries the latencies as parameters.
    kw = {"latency_model": HierarchicalLatency(), **kw, "trace": False}
    cfg = WorkStealingConfig(tree=tree, **kw)
    base = _run(cfg).to_dict()
    scaled = _run(_rescaled(cfg, 2.0**k)).to_dict()
    times = ("total_time", "baseline_time", "search_time_total")
    for name in times:
        assert scaled[name] / 2.0**k == base[name]
    assert [t / 2.0**k for t in scaled["per_rank_search_time"]] == base[
        "per_rank_search_time"
    ]
    for data in (base, scaled):
        for name in (*times, "per_rank_search_time"):
            del data[name]
        for name in ("mean_duration", "max_duration", "total_search_time"):
            del data["sessions"][name]
    assert scaled == base
