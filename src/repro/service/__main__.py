"""CLI for the simulation service: ``python -m repro.service``.

Usage::

    # run the fig02 preset sweep through the service
    python -m repro.service submit fig02 --store /tmp/store --workers 2

    # CI smoke: resubmit and demand the store answers everything
    python -m repro.service submit fig02 --store /tmp/store --require-cached

    # shrink the preset for smoke runs
    python -m repro.service submit fig02 --tree T3XS --ranks 8 16

    # inspect a store directory
    python -m repro.service stats --store /tmp/store

``submit`` builds the preset's configs (the same configs the bench CLI
runs, so stores are shared between both paths), pushes them through a
:class:`~repro.service.SimulationService` and prints one line per
terminal job event plus a summary.  ``--require-cached`` turns the
summary into a gate: exit nonzero unless *every* submission was
answered from the store.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

from repro.core.jobs import JobFailure
from repro.exec.store import ArtifactStore
from repro.service.service import SimulationService

#: Preset name -> (tree, rank ladder, allocations, selector, steal policy).
PRESETS: dict[str, tuple[str, tuple[int, ...], tuple[str, ...], str, str]] = {
    "fig02": ("T3M", (8, 16, 32, 64), ("1/N", "8RR", "8G"), "reference", "one"),
}


def _preset_configs(args) -> list:
    from repro.bench.experiments import experiment_config

    tree, ladder, allocations, selector, steal_policy = PRESETS[args.preset]
    tree = args.tree or tree
    ladder = tuple(args.ranks) if args.ranks else ladder
    allocations = tuple(args.allocations) if args.allocations else allocations
    return [
        experiment_config(
            tree,
            nranks,
            allocation=allocation,
            selector=selector,
            steal_policy=steal_policy,
            trace=True,
        )
        for nranks in ladder
        for allocation in allocations
    ]


async def _submit(args) -> int:
    configs = _preset_configs(args)
    start = time.monotonic()
    async with SimulationService(args.workers, args.store) as service:
        handle = await service.submit(configs, client="cli")
        async for event in handle.events():
            if event.state.terminal:
                print(
                    f"[service] {event.state.value:>6} {event.label}"
                    + (f"  ({event.elapsed:.2f}s)" if event.elapsed else ""),
                    file=sys.stderr,
                    flush=True,
                )
        results = await handle.results()
        stats = service.stats()
    elapsed = time.monotonic() - start

    failures = [r for r in results if isinstance(r, JobFailure)]
    summary = {
        "preset": args.preset,
        "configs": len(configs),
        "cache_hits": stats.cache_hits,
        "dedup_joins": stats.dedup_joins,
        "executed": stats.executed,
        "failed": len(failures),
        "elapsed_s": round(elapsed, 2),
        "all_cached": stats.cache_hits == stats.submitted,
    }
    print(json.dumps(summary, indent=2))
    for failure in failures:
        print(f"[service] FAILED {failure.label}: {failure.error}", file=sys.stderr)
    if failures:
        return 1
    if args.require_cached and not summary["all_cached"]:
        print(
            f"[service] FAIL: expected every config cached, but "
            f"{stats.executed} executed",
            file=sys.stderr,
        )
        return 1
    return 0


def _stats(args) -> int:
    store = ArtifactStore(args.store)
    stats = store.stats()
    print(
        json.dumps(
            {
                "dir": str(store.dir),
                "entries": stats.entries,
                "total_bytes": stats.total_bytes,
                "max_bytes": stats.max_bytes,
            },
            indent=2,
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Submit sweeps to (and inspect) the simulation service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser("submit", help="run a preset sweep via the service")
    submit.add_argument("preset", choices=sorted(PRESETS))
    submit.add_argument("--store", metavar="DIR", default=None)
    submit.add_argument("--workers", type=int, default=2, metavar="N")
    submit.add_argument(
        "--tree", default=None, metavar="NAME", help="override the preset tree"
    )
    submit.add_argument(
        "--ranks",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="override the preset rank ladder",
    )
    submit.add_argument(
        "--allocations",
        nargs="+",
        default=None,
        metavar="A",
        help="override the preset allocations",
    )
    submit.add_argument(
        "--require-cached",
        action="store_true",
        help="exit nonzero unless every config was a store hit (CI gate)",
    )

    stats = sub.add_parser("stats", help="print a store directory's accounting")
    stats.add_argument("--store", metavar="DIR", required=True)

    args = parser.parse_args(argv)
    if args.command == "submit":
        return asyncio.run(_submit(args))
    return _stats(args)


if __name__ == "__main__":
    raise SystemExit(main())
