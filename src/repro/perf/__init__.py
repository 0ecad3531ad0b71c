"""Microbenchmark harness for the simulator's hot paths.

``python -m repro.perf`` times the layers the DES optimisation work
targets and emits a ``BENCH_<n>.json`` with before/after numbers:

* **tree generation** — raw node-expansion rate of the UTS generator
  driven through the chunked stack (the simulator's inner loop without
  any event machinery);
* **selector sampling** — ``next_victim()`` draw rate for the paper's
  three selector families over a real placement;
* **event throughput** — the headline number: events/second of a full
  default-engine run on the Fig 2 configuration (T3M tree, 32 ranks,
  reference selector);
* **end-to-end** — wall time of that same run;
* **placement scale** — building an 8192-rank placement and proving
  the lazy :class:`~repro.net.pairwise.PairwiseMetric` rows never
  materialise a dense N x N matrix;
* **sharded throughput** — events/second of the engine vs shard
  count, against an interleaved same-machine one-shard baseline
  (``python -m repro.perf.sharded`` writes this rung as
  ``BENCH_4.json``);
* **parallel shards** — wall time of the multiprocess sharded driver
  vs ``shard_workers`` and transport, with the coordinator-vs-worker
  time split that an Amdahl read-out needs
  (``python -m repro.perf.sharded --parallel`` writes ``BENCH_5.json``).

Scenario functions are plain callables returning dicts so tests can
drive them with small sizes; the CLI composes them into the JSON
artifact (see ``__main__``).
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.bench.experiments import experiment_config
from repro.net.allocation import allocation_by_name, build_placement
from repro.sim.shard import ShardedCluster
from repro.uts.stack import ChunkedStack
from repro.uts.tree import TreeGenerator
from repro.uts.params import tree_by_name

__all__ = [
    "PRE_PR_BASELINE",
    "bench_tree_generation",
    "bench_selector_sampling",
    "bench_event_throughput",
    "bench_placement_scale",
    "bench_sharded_throughput",
    "bench_parallel_shards",
]

#: Event throughput of the Fig 2 configuration measured at the commit
#: immediately before the DES optimisation pass.  The "before" half of
#: the before/after record.  Measured *interleaved* with the optimised
#: build on the same machine state (alternating subprocess runs against
#: a worktree of the baseline commit, best of 8) so the ratio is not
#: polluted by container CPU-speed drift.
PRE_PR_BASELINE = {
    "events_per_sec": 53333,
    "commit": "8a80598",
    "config": "T3M, 32 ranks, 1/N, reference, steal-one",
    "method": "interleaved best-of-8 vs optimised build, same machine state",
}


def bench_tree_generation(
    tree: str = "T3M", max_nodes: int = 200_000, poll_interval: int = 2
) -> dict:
    """Expand ``tree`` through the chunked stack; report nodes/sec.

    Mirrors the simulator's quantum loop (pop a quantum, expand, push
    children) with no event queue, isolating generator + stack cost.
    """
    generator = TreeGenerator(tree_by_name(tree))
    stack = ChunkedStack(20)
    state, depth = generator.root()
    t0 = time.perf_counter()
    stack.push_batch_list([state], [depth])
    nodes = 0
    use_list = generator.supports_list_path
    while stack._chunks and nodes < max_nodes:
        if use_list:
            states, depths = stack.pop_batch_list(poll_interval)
            cs, cd = generator.children_list(states, depths)
            if cs:
                stack.push_batch_list(cs, cd)
            nodes += len(states)
        else:
            states, depths = stack.pop_batch(poll_interval)
            cs, cd, _ = generator.children_batch(states, depths)
            if len(cs):
                stack.push_batch(cs, cd)
            nodes += len(states)
    elapsed = time.perf_counter() - t0
    return {
        "tree": tree,
        "nodes": nodes,
        "seconds": round(elapsed, 6),
        "nodes_per_sec": round(nodes / elapsed) if elapsed else None,
    }


def bench_selector_sampling(
    nranks: int = 64, draws: int = 50_000, seed: int = 0
) -> dict:
    """Victim-draw rate for the paper's selector families."""
    from repro.core.victim import selector_by_name

    placement = build_placement(nranks, allocation_by_name("1/N"))
    out: dict[str, dict] = {}
    for name in ("reference", "rand", "tofu"):
        factory = selector_by_name(name)
        selector = factory.make(0, nranks, placement, seed=seed)
        next_victim = selector.next_victim
        t0 = time.perf_counter()
        for _ in range(draws):
            next_victim()
        elapsed = time.perf_counter() - t0
        out[name] = {
            "draws": draws,
            "seconds": round(elapsed, 6),
            "draws_per_sec": round(draws / elapsed) if elapsed else None,
        }
    return {"nranks": nranks, "selectors": out}


def bench_event_throughput(
    tree: str = "T3M", nranks: int = 32, trials: int = 3
) -> dict:
    """The headline: a full default-engine run (one shard) on the
    Fig 2 configuration.

    Reports the best events/sec over ``trials`` runs (the run is
    deterministic; trials only absorb machine noise) plus the wall
    time of the best run as the end-to-end figure.
    """
    cfg = experiment_config(
        tree, nranks, allocation="1/N", selector="reference", steal_policy="one"
    )
    best_evps = 0.0
    best_seconds = None
    events = nodes = 0
    for _ in range(trials):
        cluster = ShardedCluster(cfg)
        t0 = time.perf_counter()
        outcome = cluster.run()
        elapsed = time.perf_counter() - t0
        events = outcome.events_processed
        nodes = outcome.total_nodes
        evps = events / elapsed
        if evps > best_evps:
            best_evps = evps
            best_seconds = elapsed
    return {
        "tree": tree,
        "nranks": nranks,
        "trials": trials,
        "events": events,
        "nodes": nodes,
        "seconds": round(best_seconds, 6) if best_seconds else None,
        "events_per_sec": round(best_evps),
    }


def bench_sharded_throughput(
    tree: str = "T3L",
    nranks: int = 1024,
    shard_counts: tuple[int, ...] = (2, 4, 8),
    trials: int = 2,
) -> dict:
    """Events/sec of the engine vs shard count, with the one-shard run
    (what ``engine="sequential"`` is) measured *interleaved* on the
    same machine.

    Each trial is one round: a one-shard run followed by a run per
    shard count, so every count sees the same machine state within a
    round and the ratio is not polluted by CPU drift (the BENCH_2
    method).  NIC contention is off: with it on every row would
    resolve to one shard.
    """
    cfg = experiment_config(
        tree,
        nranks,
        allocation="1/N",
        selector="reference",
        steal_policy="one",
        nic_service_time=0.0,
    )
    counts = (1, *(s for s in shard_counts if s != 1))
    best: dict[int, dict] = {}
    for _ in range(trials):
        for shards in counts:
            t0 = time.perf_counter()
            outcome = ShardedCluster(
                replace(cfg, engine="sharded", shards=shards)
            ).run()
            elapsed = time.perf_counter() - t0
            evps = outcome.events_processed / elapsed if elapsed else 0.0
            slot = best.get(shards)
            if slot is None or evps > slot["events_per_sec"]:
                best[shards] = {
                    "shards": shards,
                    "events": outcome.events_processed,
                    "nodes": outcome.total_nodes,
                    "seconds": round(elapsed, 6),
                    "events_per_sec": round(evps),
                }

    one = best[1]
    rows = [best[s] for s in counts[1:]]
    for row in rows:
        row["speedup_vs_one_shard"] = round(
            row["events_per_sec"] / one["events_per_sec"], 2
        )
        # Every shard count must have simulated the identical job.
        if (row["events"], row["nodes"]) != (one["events"], one["nodes"]):
            raise AssertionError(
                f"shard counts diverged on {tree}@{nranks}: "
                f"one shard {one['events']}/{one['nodes']} vs "
                f"{row['shards']} shards {row['events']}/{row['nodes']}"
            )
    return {
        "tree": tree,
        "nranks": nranks,
        "trials": trials,
        "method": "interleaved rounds, best-of per shard count, same machine",
        "one_shard": one,
        "sharded": rows,
    }


def bench_parallel_shards(
    tree: str = "T3XL",
    nranks: int = 4096,
    shards: int = 8,
    worker_counts: tuple[int, ...] = (1, 2, 4, 8),
    transports: tuple[str, ...] = ("pipe", "shm"),
    trials: int = 1,
) -> dict:
    """Wall time of the sharded engine vs ``shard_workers``, with the
    coordinator/worker time split.

    ``shard_workers=1`` is the in-process driver — the baseline every
    multiprocess row is normalised against.  Rows with ``workers > 1``
    are run once per transport; every row must process the identical
    event/node totals (the bit-identity contract's cheap proxy — the
    full byte compare lives in tests/sim/test_sharded.py).

    Per multiprocess row the engine's :attr:`parallel_stats` are folded
    in: ``coordinator_wait_s`` (time the coordinator spent blocked on
    child replies), per-child busy seconds, round/RTT counts and wire
    bytes.  ``sum(worker_busy_s)`` vs wall time is the Amdahl read-out:
    on a single-core host wall ~= coordinator work + the *sum* of child
    busy time and the sweep documents overhead, not speedup — which is
    why ``cpu_count`` is recorded alongside.
    """
    import os

    cfg = experiment_config(
        tree,
        nranks,
        allocation="1/N",
        selector="reference",
        steal_policy="one",
        nic_service_time=0.0,
    )
    plan: list[tuple[int, str]] = []
    for workers in worker_counts:
        if workers <= 1:
            plan.append((1, "inprocess"))
        else:
            plan.extend((workers, t) for t in transports)

    best: dict[tuple[int, str], dict] = {}
    for _ in range(max(1, trials)):
        for workers, transport in plan:
            sharded_cfg = replace(
                cfg,
                engine="sharded",
                shards=shards,
                shard_workers=workers,
                shard_transport=transport if workers > 1 else "pipe",
            )
            cluster = ShardedCluster(sharded_cfg)
            t0 = time.perf_counter()
            outcome = cluster.run()
            elapsed = time.perf_counter() - t0
            row = {
                "workers": workers,
                "transport": transport,
                "events": outcome.events_processed,
                "nodes": outcome.total_nodes,
                "seconds": round(elapsed, 6),
                "events_per_sec": round(outcome.events_processed / elapsed)
                if elapsed
                else None,
            }
            stats = cluster.parallel_stats
            if stats is not None:
                busy = stats["worker_busy_s"]
                row.update(
                    {
                        "transport": stats["transport"],
                        "rounds": stats["rounds"],
                        "round_trips": stats["round_trips"],
                        "skipped_child_steps": stats["skipped_child_steps"],
                        "coordinator_wait_s": round(
                            stats["coordinator_wait_s"], 6
                        ),
                        "worker_busy_s": [round(b, 6) for b in busy],
                        "sum_worker_busy_s": round(sum(busy), 6),
                        "max_worker_busy_s": round(max(busy), 6),
                        "bytes_sent": stats["bytes_sent"],
                        "bytes_recv": stats["bytes_recv"],
                    }
                )
            key = (workers, transport)
            slot = best.get(key)
            if slot is None or row["seconds"] < slot["seconds"]:
                best[key] = row

    rows = [best[key] for key in ((w, t) for w, t in plan)]
    base = next((r for r in rows if r["workers"] == 1), None)
    for row in rows:
        if base is not None:
            row["speedup_vs_workers1"] = round(
                base["seconds"] / row["seconds"], 2
            )
            if (row["events"], row["nodes"]) != (
                base["events"],
                base["nodes"],
            ):
                raise AssertionError(
                    f"drivers diverged on {tree}@{nranks}: workers=1 "
                    f"{base['events']}/{base['nodes']} vs "
                    f"workers={row['workers']}/{row['transport']} "
                    f"{row['events']}/{row['nodes']}"
                )
    return {
        "tree": tree,
        "nranks": nranks,
        "shards": shards,
        "trials": trials,
        "cpu_count": os.cpu_count(),
        "method": "interleaved rounds, best-of per row, same machine",
        "rows": rows,
    }


def bench_placement_scale(nranks: int = 8192, sample_rows: int = 16) -> dict:
    """Build a large placement and prove the lazy-row path held.

    Touches a spread of latency/euclidean/hops rows (what selectors
    and the transport do) and asserts no metric materialised a dense
    N x N matrix along the way.
    """
    t0 = time.perf_counter()
    placement = build_placement(nranks, allocation_by_name("1/N"))
    build_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    step = max(1, nranks // sample_rows)
    for i in range(0, nranks, step):
        placement.latency.row(i)
        placement.euclidean.row(i)
        placement.hops.row(i)
    row_seconds = time.perf_counter() - t0

    dense_calls = (
        placement.latency.dense_calls
        + placement.euclidean.dense_calls
        + placement.hops.dense_calls
    )
    if dense_calls:
        raise AssertionError(
            f"{nranks}-rank placement took the dense escape hatch "
            f"{dense_calls} times"
        )
    return {
        "nranks": nranks,
        "build_seconds": round(build_seconds, 6),
        "row_sample_seconds": round(row_seconds, 6),
        "rows_sampled": 3 * len(range(0, nranks, step)),
        "dense_calls": dense_calls,
        "materialised": any(
            m.materialised
            for m in (placement.latency, placement.euclidean, placement.hops)
        ),
    }
