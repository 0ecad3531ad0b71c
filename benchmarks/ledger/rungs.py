"""Layer rungs: direct timed calls into public functions, tracing off.

One rung per thing an optimisation of that layer would move.  Sizes
are fixed per ``size`` (metric names carry the ``full`` sizes); every
rung records raw ``[t0, t1]`` monotonic intervals and a formula; the
harness turns the intervals into reference seconds (``speed.py``) and
takes the best repeat.  An interval may carry a third number, raw seconds to
subtract (time spent in the simulator itself when the rung is about
the plumbing around it).

The README maps each layer to the end-to-end metric it should move.
"""

from __future__ import annotations

import hashlib
import itertools
import shutil
import tempfile
import time
from pathlib import Path

from repro import ArtifactStore, Job, RunResult, run_many, run_uts, tree_by_name
from repro.bench.experiments import experiment_config
from repro.core import registry
from repro.exec import WorkerPool
from repro.net.allocation import build_placement
from repro.protocol.variants import protocol_overrides
from repro.service.scheduler import FairShareScheduler
from repro.tournament import TournamentSpec, run_tournament
from repro.trace import TraceAnalysis, chrome_trace
from repro.uts.rng import SplitMix64Backend
from repro.uts.sequential import sequential_count
from repro.uts.stack import ChunkedStack
from repro.uts.tree import TreeGenerator

from checks import Checks
from workloads import ServiceSweep

__all__ = ["run_rungs"]

_SIZES = {
    "full": dict(
        n=1, tree="T3M", small="T3S", big_ranks=4096, ranks=1024,
        grid_ranks=64, trace_ranks=32, seq_tree="T3M", seq256_tree="T3XS",
        seq256_ranks=256, shard_tree="T3S", shard_ranks=1024, pool_jobs=64,
        service=dict(tree="T3XS", ranks=(8,), seeds=6, warm=60, workers=2),
    ),
    "toy": dict(
        n=0.02, tree="T3XS", small="T3XS", big_ranks=64, ranks=64,
        grid_ranks=16, trace_ranks=8, seq_tree="T3XS", seq256_tree="T3XS",
        seq256_ranks=16, shard_tree="T3XS", shard_ranks=32, pool_jobs=6,
        service=dict(tree="T3XS", ranks=(8,), seeds=2, warm=5, workers=2),
    ),
}


class _Bench:
    """Collects timed intervals and the formulas that read them."""

    def __init__(self) -> None:
        self.timings: dict[str, list[list[float]]] = {}
        self.metrics: list[dict] = []

    def time(self, key: str, fn, repeats: int = 5, minus=None):
        """Run ``fn`` ``repeats`` times; returns the last return value.

        ``minus(value)`` gives raw seconds to subtract from that
        repeat's interval.
        """
        value = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            value = fn()
            t1 = time.perf_counter()
            entry = [t0, t1]
            if minus is not None:
                entry.append(minus(value))
            self.timings.setdefault(key, []).append(entry)
        return value

    def rate(self, name: str, unit: str, key: str, work: float) -> None:
        """``work / best(key)``."""
        self.metrics.append(dict(name=name, unit=unit, kind="rate", key=key, work=work))

    def per(self, name: str, unit: str, key: str, count: float, scale: float) -> None:
        """``best(key) * scale / count`` (``scale`` 1e6 for us, 1e3 for ms)."""
        self.metrics.append(
            dict(name=name, unit=unit, kind="per", key=key, count=count, scale=scale)
        )

    def ratio(self, name: str, key: str, base: str) -> None:
        self.metrics.append(dict(name=name, unit="ratio", kind="ratio", key=key, base=base))

    def pct(self, name: str, unit: str, key: str, q: float, scale: float) -> None:
        """Percentile ``q`` over the intervals of ``key`` (no best-of)."""
        self.metrics.append(dict(name=name, unit=unit, kind="pct", key=key, q=q, scale=scale))

    def const(self, name: str, unit: str, value: float) -> None:
        self.metrics.append(dict(name=name, unit=unit, kind="const", value=value))


def run_rungs(size: str, out: Path) -> dict:
    """Run every rung; returns ``{"timings": ..., "metrics": [...]}``."""
    p = _SIZES[size]
    b = _Bench()
    tmp = Path(tempfile.mkdtemp(dir=out, prefix="rungs-"))
    try:
        _uts(b, p)
        _net_core_select(b, p)
        steal_result = _protocol_sim(b, p)
        _trace(b, p)
        _exec(b, p, tmp, steal_result)
        _service(b, p, tmp, steal_result)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"timings": b.timings, "metrics": b.metrics}


# ----------------------------------------------------------------------
# repro.uts
# ----------------------------------------------------------------------


def _uts(b: _Bench, p: dict) -> None:
    n = int(100_000 * p["n"])
    backend = SplitMix64Backend()
    seed_state = backend.root_state(316)

    def spawn() -> None:
        state = seed_state
        spawn_one = backend.spawn
        for i in range(n):
            state = spawn_one(state, i & 1)

    b.time("uts.rng", spawn)
    b.rate("uts.rng.spawn_per_s", "1/s", "uts.rng", n)

    gen = TreeGenerator(tree_by_name(p["tree"]))

    def children() -> int:
        state, depth = gen.root()
        states, depths, done = [state], [depth], 0
        while states and done < n:
            bs, bd = states[-64:], depths[-64:]
            del states[-64:], depths[-64:]
            cs, cd = gen.children_list(bs, bd)
            states += cs
            depths += cd
            done += len(bs)
        return done

    b.rate("uts.tree.children_nodes_per_s", "nodes/s", "uts.tree",
           b.time("uts.tree", children))

    def expand() -> int:
        stack = ChunkedStack(20)
        state, depth = gen.root()
        stack.push_batch_list([state], [depth])
        return stack.expand_quanta(2, gen.children_list, 0.0, n * 1e-6, 1e-6)[2]

    b.rate("uts.stack.expand_nodes_per_s", "nodes/s", "uts.stack.expand",
           b.time("uts.stack.expand", expand))

    chunks = max(10, int(1000 * p["n"]))

    def steal() -> None:
        victim, thief = ChunkedStack(20), ChunkedStack(20)
        victim.push_batch_list(list(range(20 * (chunks + 1))), [1] * (20 * (chunks + 1)))
        for _ in range(chunks):
            thief.receive_chunks(victim.steal_chunks(1))

    b.time("uts.stack.steal", steal)
    b.rate("uts.stack.steal_receive_per_s", "1/s", "uts.stack.steal", chunks)

    small = tree_by_name(p["small"])
    b.rate("uts.sequential.nodes_per_s", "nodes/s", "uts.sequential",
           b.time("uts.sequential", lambda: sequential_count(small).total_nodes, 3))


# ----------------------------------------------------------------------
# repro.net, repro.core, repro.select
# ----------------------------------------------------------------------


def _net_core_select(b: _Bench, p: dict) -> None:
    latency = experiment_config("T3XS", 8).latency_model
    big, ranks = p["big_ranks"], p["ranks"]
    for alloc, tag in (("1/N", "1N"), ("8RR", "8RR")):
        key = f"net.placement.{tag}"
        b.time(key, lambda: [build_placement(big, alloc, latency_model=latency)
                             for _ in range(10)])
        b.per(f"net.placement.build_ms.{tag}-4096", "ms", key, 10, 1e3)

    def rows_cold() -> None:
        metric = build_placement(ranks, "1/N", latency_model=latency).latency
        for i in range(ranks):
            metric.row(i)

    b.time("net.row_miss", rows_cold, 3)
    b.per("net.pairwise.row_miss_us", "us", "net.row_miss", ranks, 1e6)

    placement = build_placement(ranks, "1/N", latency_model=latency)
    metric = placement.latency
    n = int(50_000 * p["n"])
    mask = ranks - 1

    def rows_hot() -> None:
        row = metric.row
        for i in range(n):
            row(i & 63)

    def values() -> None:
        value = metric.value
        for i in range(n):
            value(i & 63, (i * 7) & mask)

    b.time("net.row_hit", rows_hot)
    b.per("net.pairwise.row_hit_us", "us", "net.row_hit", n, 1e6)
    b.time("net.value", values)
    b.per("net.pairwise.value_us", "us", "net.value", n, 1e6)

    def draw_loop(selector):
        def loop() -> None:
            draw = selector.next_victim
            for _ in range(n):
                draw()
        return loop

    for name, tag in (
        ("reference", "reference"), ("rand", "rand"), ("tofu", "tofu"),
        ("hierarchical", "hierarchical"), ("lastvictim", "lastvictim"),
        ("latskew[1]", "latskew"),
    ):
        selector = registry.resolve("selector", name).make(0, ranks, placement, seed=0)
        b.time(f"core.draws.{tag}", draw_loop(selector))
        b.rate(f"core.victim.draws_per_s.{tag}", "1/s", f"core.draws.{tag}", n)

    tofu = registry.resolve("selector", "tofu")
    makes = min(64, big)

    def make_tables() -> None:
        fresh = build_placement(big, "1/N", latency_model=latency)
        for rank in range(makes):
            tofu.make(rank, big, fresh, seed=0)

    b.time("core.make", make_tables, 3)
    b.per("core.victim.make_ms.tofu-4096", "ms", "core.make", makes, 1e3)

    constructs = 1000

    def construct() -> None:
        for _ in range(constructs):
            experiment_config(p["tree"], 256, allocation="8RR",
                              selector="tofu", steal_policy="half")

    b.time("core.config", construct)
    b.per("core.config.construct_us", "us", "core.config", constructs, 1e6)

    grid = p["grid_ranks"]
    small = build_placement(grid, "1/N", latency_model=latency)

    def choose_notify(selector):
        def loop() -> None:
            draw, notify = selector.next_victim, selector.notify
            for i in range(n):
                notify(draw(), not i & 3)
        return loop

    for name, tag in (
        ("adapt-eps[0.1]", "adapt-eps"), ("adapt-sr[0.9]", "adapt-sr"),
        ("adapt-backoff[2]", "adapt-backoff"),
    ):
        selector = registry.resolve("selector", name).make(0, grid, small, seed=0)
        b.time(f"select.{tag}", choose_notify(selector), 3)
        b.rate(f"select.choose_notify_per_s.{tag}", "1/s", f"select.{tag}", n)


# ----------------------------------------------------------------------
# repro.protocol, repro.sim
# ----------------------------------------------------------------------


def _events_rung(b: _Bench, name: str, key: str, config, repeats: int) -> RunResult:
    result = b.time(key, lambda: run_uts(config), repeats)
    b.rate(name, "events/s", key, result.events_processed)
    return result


def _protocol_sim(b: _Bench, p: dict) -> RunResult:
    grid = p["grid_ranks"]
    steal = None
    for spec, tag in (
        ("steal", "steal"), ("forward[3]+regions[8]", "forward-regions"),
        ("lifelines[2:ring]", "lifelines"),
    ):
        config = experiment_config(
            p["small"], grid, selector="tofu", steal_policy="one",
            **protocol_overrides(spec),
        )
        result = _events_rung(
            b, f"protocol.{tag}.events_per_s", f"protocol.{tag}", config, 2
        )
        steal = steal or result

    _events_rung(
        b, "sim.sequential.events_per_s.32", "sim.seq32",
        experiment_config(p["seq_tree"], p["trace_ranks"]), 1,
    )
    _events_rung(
        b, "sim.sequential.events_per_s.256", "sim.seq256",
        experiment_config(p["seq256_tree"], p["seq256_ranks"]), 1,
    )
    for shards in (1, 4):
        _events_rung(
            b, f"sim.sharded.events_per_s.1024-s{shards}", f"sim.sharded{shards}",
            experiment_config(
                p["shard_tree"], p["shard_ranks"], nic_service_time=0.0,
                engine="sharded", shards=shards,
            ),
            1,
        )
    return steal


# ----------------------------------------------------------------------
# repro.trace (+ core.metrics, which reads the activity trace)
# ----------------------------------------------------------------------


def _trace(b: _Bench, p: dict) -> None:
    base = experiment_config(p["small"], p["trace_ranks"], selector="tofu")
    b.time("trace.off", lambda: run_uts(base), 2)
    b.time("trace.activity", lambda: run_uts(base.replace(trace=True)), 2)
    traced = b.time(
        "trace.events", lambda: run_uts(base.replace(trace=True, event_trace=True)), 2
    )
    b.ratio("trace.activity.overhead_ratio", "trace.activity", "trace.off")
    b.ratio("trace.events.overhead_ratio", "trace.events", "trace.off")

    b.time("trace.analysis", lambda: TraceAnalysis(traced.events).summary(), 3)
    b.rate("trace.analysis.events_per_s", "events/s", "trace.analysis", len(traced.events))
    b.time(
        "trace.chrome",
        lambda: chrome_trace(traced.events, traced.trace,
                             total_time=traced.total_time, label=traced.label),
        3,
    )
    b.rate("trace.chrome.export_events_per_s", "events/s", "trace.chrome", len(traced.events))

    def sl_el() -> None:
        for _ in range(20):
            curve = traced.occupancy_curve()
            curve.starting_latency(0.5)
            curve.ending_latency(0.5)

    b.time("core.sl_el", sl_el)
    b.per("core.metrics.sl_el_ms", "ms", "core.sl_el", 20, 1e3)


# ----------------------------------------------------------------------
# repro.exec (+ ws), repro.tournament
# ----------------------------------------------------------------------


def _exec(b: _Bench, p: dict, tmp: Path, result: RunResult) -> None:
    config = experiment_config(p["tree"], 256, allocation="8RR", selector="tofu")
    n = 200
    b.time("exec.fingerprint", lambda: [config.fingerprint() for _ in range(n)])
    b.per("exec.fingerprint.us", "us", "exec.fingerprint", n, 1e6)

    payload = result.to_json()
    b.time("exec.to_json", lambda: [result.to_json() for _ in range(n)])
    b.per("exec.results.to_json_us", "us", "exec.to_json", n, 1e6)
    b.time("exec.from_json", lambda: [RunResult.from_json(payload) for _ in range(n)])
    b.per("exec.results.from_json_us", "us", "exec.from_json", n, 1e6)

    # Tiny jobs so the plumbing around run_uts is what is left after
    # subtracting the time spent inside it.
    jobs = [experiment_config("T3XS", 8, seed=i) for i in range(16)]
    stores = itertools.count()

    def cold() -> float:
        inside = []
        run_many(jobs, store=tmp / f"cold-{next(stores)}",
                 progress=lambda tick: inside.append(tick.elapsed))
        return sum(inside)

    b.time("exec.store.write", cold, 2, minus=lambda inside: inside)
    b.per("exec.store.write_us_per_job", "us", "exec.store.write", len(jobs), 1e6)
    warm_dir = tmp / "warm"
    run_many(jobs, store=warm_dir)
    b.time("exec.store.hit", lambda: run_many(jobs, store=warm_dir))
    b.per("exec.store.hit_us_per_job", "us", "exec.store.hit", len(jobs), 1e6)

    workers = 2
    pool_jobs = [experiment_config("T3XS", 8, seed=100 + i).to_dict()
                 for i in range(p["pool_jobs"])]
    with WorkerPool(workers) as pool:
        # First submit forks the workers; its own run time is excluded.
        b.time("exec.pool.startup", lambda: pool.submit(pool_jobs[0]).result()[2],
               1, minus=lambda elapsed: elapsed)

        def dispatch() -> float:
            futures = [pool.submit(job) for job in pool_jobs]
            return sum(f.result()[2] for f in futures) / workers

        # What is left per job when both workers are always busy.
        b.time("exec.pool.dispatch", dispatch, 1, minus=lambda inside: inside)
    b.per("exec.pool.startup_s", "s", "exec.pool.startup", 1, 1)
    b.per("exec.pool.dispatch_us_per_job", "us", "exec.pool.dispatch", len(pool_jobs), 1e6)

    spec = TournamentSpec(
        name="ledger-score", tree="T3XS", nranks=16,
        selectors=("rand", "tofu", "adapt-sr[0.9]"),
    )
    run_tournament(spec, store=tmp / "tournament")
    # Every result comes from the store, so scoring is what remains.
    rows = b.time("tournament.score",
                  lambda: len(run_tournament(spec, store=tmp / "tournament").rows), 3)
    b.per("tournament.score_ms_per_row", "ms", "tournament.score", rows, 1e3)


# ----------------------------------------------------------------------
# repro.service
# ----------------------------------------------------------------------


def _service(b: _Bench, p: dict, tmp: Path, result: RunResult) -> None:
    n = 30
    keys = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(n)]
    stores = itertools.count()

    def puts(**kwargs):
        def run() -> ArtifactStore:
            store = ArtifactStore(tmp / f"put-{next(stores)}", **kwargs)
            for key in keys:
                store.put(key, result)
            return store
        return run

    store = b.time("service.put", puts(), 3)
    b.per("service.store.put_us", "us", "service.put", n, 1e6)
    b.time("service.get", lambda: [store.get(key) for key in keys], 3)
    b.per("service.store.get_us", "us", "service.get", n, 1e6)
    # A budget of ten entries: every put past the tenth scans and evicts.
    budget = 10 * store.path_for(keys[0]).stat().st_size
    b.time("service.put_budgeted", puts(max_bytes=budget), 3)
    b.per("service.store.put_budgeted_us", "us", "service.put_budgeted", n, 1e6)

    ops = 2000
    queued = [
        Job(id=f"j{i}", fingerprint=f"{i:x}", config={}, label="", client=f"c{i & 3}")
        for i in range(ops)
    ]

    def schedule() -> None:
        scheduler = FairShareScheduler()
        for job in queued:
            scheduler.push(job)
        while scheduler.pop() is not None:
            pass

    b.time("service.scheduler", schedule, 3)
    b.rate("service.scheduler.ops_per_s", "1/s", "service.scheduler", 2 * ops)

    # A small sweep through a real service: the same cold/warm shape
    # as the service-sweep workload, sized to seconds.
    sweep = ServiceSweep(p["service"], 0, tmp)
    try:
        record = sweep.run_pass(Checks())
    finally:
        sweep.close()
    b.timings["service.queue_wait"] = record["queue_waits"]
    b.timings["service.warm"] = record["requests"]
    b.pct("service.queue_wait_p50_ms", "ms", "service.queue_wait", 0.5, 1e3)
    b.pct("service.warm_sweep_p95_ms", "ms", "service.warm", 0.95, 1e3)
    b.const("service.dedup_executed", "count", record["executed"])
