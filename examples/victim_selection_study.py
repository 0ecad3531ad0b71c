#!/usr/bin/env python
"""Victim-selection case study: reproduce the paper's core comparison.

A condensed version of the paper's evaluation pipeline:

1. sweep the large-scale rank ladder for the reference, random and
   distance-skewed selectors (with steal-half for the optimised one);
2. print the speedup series (Figs 3/6/9/11 in one table);
3. trace the top-scale reference and optimised runs and print their
   starting/ending scheduling latencies (Figs 12/13);
4. print search-time and failed-steal columns (Figs 14/15).

Usage::

    python examples/victim_selection_study.py [--quick]

``--quick`` restricts the ladder to 64/128 ranks (~30 s instead of a
few minutes).
"""

from __future__ import annotations

import sys

import numpy as np

from repro.bench.experiments import CALIBRATION, run_grid
from repro.bench.report import format_series, format_table, render_ascii_curve

#: Label -> (selector, steal policy).
STRATEGIES = {
    "Reference": ("reference", "one"),
    "Rand": ("rand", "one"),
    "Tofu": ("tofu", "one"),
    "Tofu Half": ("tofu", "half"),
}


def main() -> None:
    quick = "--quick" in sys.argv
    ladder = (64, 128) if quick else (64, 128, 256, 512)
    tree = CALIBRATION.large_tree

    # 1-2. Speedups across the ladder: two grids keyed
    # (nranks, selector, policy), every run traced on 1/N.
    runs = {
        **run_grid(
            tree,
            ladder,
            selector=("reference", "rand", "tofu"),
            steal_policy=("one",),
            trace=True,
        ),
        **run_grid(
            tree, ladder, selector=("tofu",), steal_policy=("half",), trace=True
        ),
    }
    # label -> its runs in ladder order
    results = {
        label: [runs[(n, *strategy)] for n in ladder]
        for label, strategy in STRATEGIES.items()
    }
    curves = {label: [r.speedup for r in rs] for label, rs in results.items()}
    print(format_series("Speedup, 1/N allocation", "nranks", ladder, curves))

    # 3. Scheduling latencies at the top scale.
    top = ladder[-1]
    grid = np.arange(0.05, 1.001, 0.05)
    print("\nScheduling latencies at x%d (fraction of runtime):" % top)
    for label in ("Reference", "Tofu Half"):
        profile = results[label][-1].latency_profile(grid)
        print(f"\n  {label}: max occupancy {profile.max_occupancy:.0%}")
        print("  SL(x):")
        print(
            "\n".join(
                "  " + line
                for line in render_ascii_curve(
                    profile.starting.tolist(), width=50, height=6
                ).splitlines()
            )
        )

    # 4. Search time and failed steals.
    rows = []
    for label, rs in results.items():
        r = rs[-1]
        rows.append(
            [label, r.mean_search_time * 1e3, r.failed_steals,
             r.mean_session_duration * 1e6, r.sessions.sessions_per_rank]
        )
    print("\n" + format_table(
        ["strategy", "search_ms", "failed", "session_us", "sessions/rank"],
        rows,
    ))


if __name__ == "__main__":
    main()
