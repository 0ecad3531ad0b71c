#!/usr/bin/env python
"""Work-granularity study (the paper's §V-B, Fig 16).

Sweeps the per-node compute cost (the UTS "SHA rounds per node
creation" knob) and reports how the advantage of latency-aware victim
selection over uniform random shrinks as each stolen node carries more
compute time.

Usage::

    python examples/granularity_study.py [nranks]
"""

from __future__ import annotations

import sys

from repro.bench.experiments import CALIBRATION, run_grid
from repro.bench.report import format_series

ROUNDS = (1, 4, 16)


def main() -> None:
    nranks = int(sys.argv[1]) if len(sys.argv) > 1 else 128

    # One grid: granularity x selector, every run steal-half on 1/N.
    res = run_grid(
        CALIBRATION.large_tree,
        nranks,
        steal_policy="half",
        compute_rounds=ROUNDS,
        selector=("reference", "rand", "tofu"),
    )
    base = {rounds: res[rounds, "reference"].total_time for rounds in ROUNDS}
    curves = {
        label: [
            100.0 * (base[rounds] - res[rounds, sel].total_time) / base[rounds]
            for rounds in ROUNDS
        ]
        for label, sel in (("Rand Half", "rand"), ("Tofu Half", "tofu"))
    }

    print(
        format_series(
            f"Runtime improvement over Reference Half (%), x{nranks}, 1/N",
            "SHA rounds",
            ROUNDS,
            curves,
        )
    )
    gap = [
        t - r for t, r in zip(curves["Tofu Half"], curves["Rand Half"])
    ]
    print(
        "\nTofu-over-Rand gap per granularity: "
        + ", ".join(f"{g:+.1f}%" for g in gap)
    )
    print(
        "As each steal carries more compute time, latency-aware selection"
        "\nmatters less — the paper's concluding observation."
    )


if __name__ == "__main__":
    main()
