"""Service load benchmark: ``python -m repro.service.loadgen``.

Drives a :class:`~repro.service.SimulationService` with closed-loop
clients drawing configs from a **zipfian popularity distribution** —
the canonical shape of a shared result cache's traffic (a few sweeps
everyone reruns, a long tail of one-offs) — and reports BENCH-style
JSON:

* sustained **sweeps/sec** over the measured window,
* **p50/p99 submit-to-result latency**, reported separately for
  *cold* requests (the client waited on a real execution) and *warm*
  ones (served terminal at submit: a store hit) — the two populations
  differ by orders of magnitude, so the pooled percentiles say little,
* **cache hit rate** (store hits + in-flight joins over submissions),
* executed-vs-distinct counts proving the one-fingerprint-one-execution
  dedup guarantee.

Usage::

    python -m repro.service.loadgen --duration 10 --clients 4
    python -m repro.service.loadgen --duration 10 \\
        --require-throughput 5 --require-hit-rate 0.9   # CI gate

The config universe is ``--universe`` small-tree (T3XS) configs
differing only by seed, ranked by popularity; client *c* requests rank
*i* with probability proportional to ``1 / (i+1)**s`` (``--zipf``).
Every run is milliseconds long, so the benchmark measures the service
stack — submission, dedup, scheduling, store round-trips — not the
simulator.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import random
import subprocess
import sys
import tempfile
import time

from repro.core.config import WorkStealingConfig
from repro.uts.params import T3XS
from repro.service.service import SimulationService
from repro.service.store import ArtifactStore

__all__ = ["run_load", "main"]


def _universe(size: int) -> list[WorkStealingConfig]:
    """Popularity-ranked distinct configs (rank 0 = most popular)."""
    return [
        WorkStealingConfig(tree=T3XS, nranks=4, seed=seed)
        for seed in range(size)
    ]


def _zipf_weights(size: int, exponent: float) -> list[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(size)]


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


async def _client(
    service: SimulationService,
    name: str,
    universe: list[WorkStealingConfig],
    weights: list[float],
    deadline: float,
    rng: random.Random,
    cold: list[float],
    warm: list[float],
) -> int:
    """Closed loop: submit one config, wait for its result, repeat.

    Each request's latency lands in one of two distributions: *warm*
    when the sweep's job was already terminal at submit time (a store
    hit — pure service overhead), *cold* when the client had to wait
    for a real execution (a fresh run, or a dedup join onto one still
    in flight).  Pooling them hides the bimodality: the hit-dominated
    percentiles say fractions of a millisecond while the max is a full
    simulation, and neither population is characterised.
    """
    sweeps = 0
    while time.monotonic() < deadline:
        config = rng.choices(universe, weights=weights)[0]
        start = time.monotonic()
        handle = await service.submit([config], client=name)
        hit = all(job.terminal for job in handle.jobs)
        await handle.results()
        (warm if hit else cold).append(time.monotonic() - start)
        sweeps += 1
    return sweeps


async def _drive(
    *,
    duration: float,
    clients: int,
    universe_size: int,
    zipf: float,
    workers: int,
    store_dir: str | None,
    seed: int,
) -> dict:
    universe = _universe(universe_size)
    weights = _zipf_weights(universe_size, zipf)
    store = ArtifactStore(store_dir) if store_dir else ArtifactStore(
        tempfile.mkdtemp(prefix="repro-loadgen-")
    )
    cold: list[float] = []
    warm: list[float] = []
    async with SimulationService(workers, store) as service:
        start = time.monotonic()
        deadline = start + duration
        counts = await asyncio.gather(
            *(
                _client(
                    service,
                    f"client-{i}",
                    universe,
                    weights,
                    deadline,
                    random.Random(seed + i),
                    cold,
                    warm,
                )
                for i in range(clients)
            )
        )
        elapsed = time.monotonic() - start
        stats = service.stats()

    cold.sort()
    warm.sort()
    pooled = sorted(cold + warm)
    sweeps = sum(counts)
    submitted = stats.submitted
    hits = stats.cache_hits + stats.dedup_joins

    def _dist(values: list[float]) -> dict:
        return {
            "count": len(values),
            "p50_ms": round(_percentile(values, 0.50) * 1e3, 3),
            "p99_ms": round(_percentile(values, 0.99) * 1e3, 3),
            "max_ms": round(values[-1] * 1e3, 3) if values else 0.0,
        }

    return {
        "duration_s": round(elapsed, 3),
        "clients": clients,
        "workers": workers,
        "universe": universe_size,
        "zipf_exponent": zipf,
        "sweeps": sweeps,
        "sweeps_per_sec": round(sweeps / elapsed, 2) if elapsed else 0.0,
        "submitted": submitted,
        "cache_hits": stats.cache_hits,
        "dedup_joins": stats.dedup_joins,
        "hit_rate": round(hits / submitted, 4) if submitted else 0.0,
        "executed": stats.executed,
        "distinct_configs": universe_size,
        "failed": stats.failed,
        # Pooled percentiles: read the split distributions instead —
        # pooling a bimodal population makes both numbers misleading.
        "latency_p50_ms": round(_percentile(pooled, 0.50) * 1e3, 3),
        "latency_p99_ms": round(_percentile(pooled, 0.99) * 1e3, 3),
        "latency_max_ms": round(pooled[-1] * 1e3, 3) if pooled else 0.0,
        "latency_cold": _dist(cold),
        "latency_warm": _dist(warm),
    }


def run_load(
    duration: float = 10.0,
    clients: int = 4,
    universe: int = 25,
    zipf: float = 1.1,
    workers: int = 2,
    store_dir: str | None = None,
    seed: int = 0,
) -> dict:
    """Run the load benchmark and return its results dict."""
    return asyncio.run(
        _drive(
            duration=duration,
            clients=clients,
            universe_size=universe,
            zipf=zipf,
            workers=workers,
            store_dir=store_dir,
            seed=seed,
        )
    )


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
        prog="python -m repro.service.loadgen",
        description="Load-benchmark the simulation service and emit BENCH JSON.",
    )
    parser.add_argument("--duration", type=float, default=10.0, metavar="S")
    parser.add_argument("--clients", type=int, default=4, metavar="N")
    parser.add_argument(
        "--universe",
        type=int,
        default=25,
        metavar="N",
        help="distinct configs in the popularity ranking (default: 25)",
    )
    parser.add_argument(
        "--zipf",
        type=float,
        default=1.1,
        metavar="S",
        help="zipf exponent of config popularity (default: 1.1)",
    )
    parser.add_argument("--workers", type=int, default=2, metavar="N")
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="artifact store directory (default: fresh temp dir = cold start)",
    )
    parser.add_argument("--seed", type=int, default=0, metavar="N")
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also write the full BENCH JSON report here",
    )
    parser.add_argument(
        "--require-throughput",
        type=float,
        default=None,
        metavar="SPS",
        help="exit nonzero below this sweeps/sec (CI gate)",
    )
    parser.add_argument(
        "--require-hit-rate",
        type=float,
        default=None,
        metavar="FRAC",
        help="exit nonzero below this cache hit rate (CI gate)",
    )
    args = parser.parse_args(argv)

    print(
        f"[loadgen] {args.clients} clients x {args.duration}s, "
        f"universe={args.universe} zipf={args.zipf} workers={args.workers}",
        file=sys.stderr,
        flush=True,
    )
    results = run_load(
        duration=args.duration,
        clients=args.clients,
        universe=args.universe,
        zipf=args.zipf,
        workers=args.workers,
        store_dir=args.store,
        seed=args.seed,
    )
    report = {
        "schema": "repro-service-load-v1",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "commit": _git_commit(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "results": results,
    }
    print(json.dumps(report, indent=2))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"[loadgen] wrote {args.out}", file=sys.stderr)

    ok = True
    if args.require_throughput is not None and (
        results["sweeps_per_sec"] < args.require_throughput
    ):
        print(
            f"[loadgen] FAIL: {results['sweeps_per_sec']} sweeps/sec "
            f"< required {args.require_throughput}",
            file=sys.stderr,
        )
        ok = False
    if args.require_hit_rate is not None and (
        results["hit_rate"] < args.require_hit_rate
    ):
        print(
            f"[loadgen] FAIL: hit rate {results['hit_rate']} "
            f"< required {args.require_hit_rate}",
            file=sys.stderr,
        )
        ok = False
    if results["failed"]:
        print(f"[loadgen] FAIL: {results['failed']} jobs failed", file=sys.stderr)
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
