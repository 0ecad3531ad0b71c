"""Sharded-engine throughput rung: ``python -m repro.perf.sharded``.

Writes ``BENCH_4.json``: events/second of the engine
(:mod:`repro.sim.shard`) versus shard count, with the one-shard run
measured interleaved on the same machine (the BENCH_2 method).  Two
rungs by default:

* **T3L @ 1024 ranks** — the old top of the large ladder, where the
  shard-count curve is cheap enough to sweep;
* **T3XL @ 4096 ranks** — the in-regime scale, one shard against
  eight.

``--parallel`` switches to the multiprocess rung and writes
``BENCH_5.json``: wall time of the sharded engine versus
``shard_workers`` and transport at T3XL @ 4096 ranks / 8 shards, with
the coordinator-vs-worker time split from
:func:`repro.perf.bench_parallel_shards`.  ``cpu_count`` is recorded in
the artifact — on a single-core host the sweep documents protocol
overhead (wall ~= coordinator + *sum* of child busy time), and the
per-child busy seconds are what a multi-core wall clock would approach.

Usage::

    python -m repro.perf.sharded                 # full, minutes
    python -m repro.perf.sharded --quick         # CI smoke (~seconds)
    python -m repro.perf.sharded --skip-4096     # only the 1024 rung
    python -m repro.perf.sharded --parallel      # workers sweep -> BENCH_5
    python -m repro.perf.sharded --parallel --quick
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time

from repro.perf import bench_parallel_shards, bench_sharded_throughput


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.sharded",
        description="Benchmark the sharded engine and emit BENCH JSON.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes for CI smoke runs (seconds, not minutes)",
    )
    parser.add_argument(
        "--skip-4096",
        action="store_true",
        help="skip the 4096-rank rung",
    )
    parser.add_argument(
        "--parallel",
        action="store_true",
        help="sweep shard_workers x transport instead of shard counts "
        "(writes BENCH_5.json)",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="output JSON path (default: BENCH_4.json, "
        "or BENCH_5.json with --parallel)",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = "BENCH_5.json" if args.parallel else "BENCH_4.json"

    def stage(label):
        print(f"[perf.sharded] {label} ...", file=sys.stderr, flush=True)

    if args.parallel:
        return _main_parallel(args, stage)

    rungs = []
    if args.quick:
        stage("quick rung (T3S, 64 ranks)")
        rungs.append(
            bench_sharded_throughput(
                tree="T3S", nranks=64, shard_counts=(2,), trials=1
            )
        )
    else:
        stage("T3L, 1024 ranks, shard sweep")
        rungs.append(
            bench_sharded_throughput(
                tree="T3L",
                nranks=1024,
                shard_counts=(2, 4, 8),
                trials=2,
            )
        )
        if not args.skip_4096:
            stage("T3XL, 4096 ranks")
            rungs.append(
                bench_sharded_throughput(
                    tree="T3XL",
                    nranks=4096,
                    shard_counts=(8,),
                    trials=1,
                )
            )

    headline = {}
    top = rungs[-1]
    if top["sharded"]:
        best = max(top["sharded"], key=lambda r: r["events_per_sec"])
        headline = {
            "rung": f"{top['tree']}@{top['nranks']}",
            "sharded_events_per_sec": best["events_per_sec"],
            "one_shard_events_per_sec": top["one_shard"]["events_per_sec"],
            "speedup_vs_one_shard": best["speedup_vs_one_shard"],
            "shards": best["shards"],
        }

    report = {
        "schema": "repro-perf-sharded-v2",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "commit": _git_commit(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": args.quick,
        "results": rungs,
        "headline": headline,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    print(json.dumps(headline, indent=2))
    print(f"[perf.sharded] wrote {args.out}", file=sys.stderr)
    return 0


def _main_parallel(args, stage) -> int:
    if args.quick:
        stage("quick parallel rung (T3S, 64 ranks, 4 shards)")
        rung = bench_parallel_shards(
            tree="T3S",
            nranks=64,
            shards=4,
            worker_counts=(1, 2),
            transports=("pipe", "shm"),
            trials=1,
        )
    else:
        stage("T3XL, 4096 ranks, 8 shards, shard_workers sweep")
        rung = bench_parallel_shards(
            tree="T3XL",
            nranks=4096,
            shards=8,
            worker_counts=(1, 2, 4, 8),
            transports=("pipe", "shm"),
            trials=1,
        )

    base = next((r for r in rung["rows"] if r["workers"] == 1), None)
    multi = [r for r in rung["rows"] if r["workers"] > 1]
    headline = {}
    if base is not None and multi:
        best = min(multi, key=lambda r: r["seconds"])
        headline = {
            "rung": f"{rung['tree']}@{rung['nranks']}/{rung['shards']} shards",
            "cpu_count": rung["cpu_count"],
            "workers1_seconds": base["seconds"],
            "best_parallel_seconds": best["seconds"],
            "best_parallel_workers": best["workers"],
            "best_parallel_transport": best["transport"],
            "speedup_vs_workers1": best["speedup_vs_workers1"],
            "best_parallel_max_worker_busy_s": best.get("max_worker_busy_s"),
        }

    report = {
        "schema": "repro-perf-parallel-shards-v1",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "commit": _git_commit(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": args.quick,
        "results": [rung],
        "headline": headline,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    print(json.dumps(headline, indent=2))
    print(f"[perf.sharded] wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
