"""Command-line entry point: run one paper experiment by id.

Usage::

    python -m repro.bench table1
    python -m repro.bench fig11 --jobs 4
    python -m repro.bench --list

Runs the same code paths as ``pytest benchmarks/`` (shapes asserted
there; here the series are just computed and printed).  ``--jobs N``
runs each experiment's sweep on N worker processes; results are cached
on disk under ``benchmarks/_cache/`` (disable with ``--no-cache``) so
re-running an experiment is instant.  To trace an experiment's
representative config, run ``python -m repro.trace --config <id>``.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from repro.bench import experiments

#: experiment id -> (benchmarks module, series builder, description).
#: The ``benchmarks`` package must be importable (run from the repo root).
_EXPERIMENTS: dict[str, tuple[str, str, str]] = {
    "table1": ("test_table1_trees", "_rows", "Table I: tree parameters"),
    "fig02": ("test_fig02_reference_small", "_series", "Fig 2: small-scale efficiency"),
    "fig03": ("test_fig03_reference_large", "_series", "Fig 3: reference speedup"),
    "fig04": ("test_fig04_latency_small", "_profile", "Fig 4: SL/EL small run"),
    "fig05": ("test_fig05_latency_large", "_profile", "Fig 5: SL/EL large run"),
    "fig06": ("test_fig06_random_speedup", "_series", "Fig 6: random-selection speedup"),
    "fig07": ("test_fig07_random_failed_steals", "_series", "Fig 7: failed steals (rand)"),
    "fig08": ("test_fig08_probability_distribution", "_distribution", "Fig 8: p(0,x)"),
    "fig09": ("test_fig09_tofu_speedup", "_series", "Fig 9: Tofu speedup"),
    "fig10": ("test_fig10_discovery_sessions", "_series", "Fig 10: discovery sessions"),
    "fig11": ("test_fig11_steal_half", "_series", "Fig 11: steal-half variants"),
    "fig12": ("test_fig12_starting_latency", "_profiles", "Fig 12: starting latencies"),
    "fig13": ("test_fig13_ending_latency", "_profiles", "Fig 13: ending latencies"),
    "fig14": ("test_fig14_search_time", "_series", "Fig 14: search time"),
    "fig15": ("test_fig15_failed_steals", "_series", "Fig 15: failed steals (optimised)"),
    "fig16": ("test_fig16_granularity", "_series", "Fig 16: granularity sweep"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate one of the paper's tables/figures.",
    )
    parser.add_argument("experiment", nargs="?", help="experiment id (e.g. fig11)")
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the experiment's sweep (default: 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the on-disk result cache (benchmarks/_cache/)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the top 25 functions by "
        "cumulative time (forces --jobs 1 so the profile covers the "
        "actual simulation work)",
    )
    args = parser.parse_args(argv)

    experiment = args.experiment
    if args.list or not experiment:
        for key, (_, _, desc) in _EXPERIMENTS.items():
            print(f"  {key:8s} {desc}")
        return 0

    try:
        module_name, fn_name, desc = _EXPERIMENTS[experiment]
    except KeyError:
        print(f"unknown experiment {experiment!r}; try --list", file=sys.stderr)
        return 2

    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    jobs = args.jobs
    if args.profile and jobs != 1:
        print("--profile forces --jobs 1", file=sys.stderr)
        jobs = 1
    experiments.configure(jobs=jobs, cache=not args.no_cache)

    module = importlib.import_module(f"benchmarks.{module_name}")
    print(f"running {desc} ...", file=sys.stderr)
    builder = getattr(module, fn_name)
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        payload = profiler.runcall(builder)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)
    else:
        payload = builder()
    # Reuse the module's own printing by invoking its test body is not
    # possible without the benchmark fixture; print the raw payload in
    # a readable form instead.
    from pprint import pprint

    pprint(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
