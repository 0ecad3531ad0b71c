"""CLI for the strategy tournament harness.

Examples::

    python -m repro.tournament --list
    python -m repro.tournament --preset smoke --jobs 2
    python -m repro.tournament --preset adaptive --store /tmp/t-store
    python -m repro.tournament --preset smoke --require-cached

``--require-cached`` exits non-zero if any config had to be simulated
(CI uses it to prove the second run is fully store-served, which also
pins the leaderboard's cold/warm byte-identity).
"""

from __future__ import annotations

import argparse
import sys

from repro.tournament.harness import (
    DEFAULT_OUT_DIR,
    PRESETS,
    run_tournament,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tournament",
        description="Run a victim-selection tournament and write its leaderboard.",
    )
    parser.add_argument(
        "--preset",
        default="smoke",
        choices=sorted(PRESETS),
        help="named tournament grid (default: smoke)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list presets and exit"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (results are independent of this)",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="result store directory (default: benchmarks/_cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="run without a result store",
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_OUT_DIR,
        help=f"artifact directory (default: {DEFAULT_OUT_DIR})",
    )
    parser.add_argument(
        "--require-cached",
        action="store_true",
        help="fail if any config had to be simulated",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(PRESETS):
            spec = PRESETS[name]
            print(
                f"{name}: {spec.tree} x{spec.nranks}, "
                f"{len(spec.configs())} configs "
                f"({', '.join(spec.selectors)})"
            )
        return 0

    if args.jobs < 1:
        print(f"--jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    store = None if args.no_cache else (args.store or True)
    tournament = run_tournament(PRESETS[args.preset], jobs=args.jobs, store=store)
    paths = tournament.write(args.out)
    print(tournament.leaderboard_markdown())
    print(
        f"executed {tournament.executed}, cached {tournament.cached}; "
        f"wrote {', '.join(paths)}"
    )
    if args.require_cached and tournament.executed > 0:
        print(
            f"--require-cached: {tournament.executed} configs were simulated",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
