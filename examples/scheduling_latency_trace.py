#!/usr/bin/env python
"""The scheduling-latency metric, end to end (the paper's §III).

Runs one traced execution, then walks through everything the metric
offers: the occupancy step function, Wmax, SL/EL at chosen occupancy
levels, clock-skew injection + correction, and the full latency
profile rendered as ASCII curves.

Usage::

    python examples/scheduling_latency_trace.py [nranks]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import T3S, run_uts
from repro.bench.report import format_table, render_ascii_curve


def main() -> None:
    nranks = int(sys.argv[1]) if len(sys.argv) > 1 else 64

    # Clock skew stamps each rank's trace and is corrected in the
    # result, the same pipeline the paper applies to its K Computer
    # traces.
    result = run_uts(
        tree=T3S,
        nranks=nranks,
        selector="reference",
        trace=True,
        clock_skew_std=5e-5,
        seed=1,
    )
    curve = result.occupancy_curve()

    print(result.summary())
    print(
        f"\nWmax = {curve.max_workers}/{nranks} "
        f"({curve.max_occupancy:.0%} peak occupancy), "
        f"time-average occupancy {curve.average_occupancy():.0%}\n"
    )

    rows = []
    for x in (0.10, 0.25, 0.50, 0.75, 0.90):
        sl = curve.starting_latency(x)
        el = curve.ending_latency(x)
        rows.append(
            [
                f"{x:.0%}",
                "unreached" if sl is None else f"{sl:.2%}",
                "unreached" if el is None else f"{el:.2%}",
            ]
        )
    print(format_table(["occupancy", "SL(x)", "EL(x)"], rows))

    profile = result.latency_profile(np.arange(0.02, 1.0, 0.02))
    print("\nSL(x) over the occupancy grid:")
    print(render_ascii_curve(profile.starting.tolist(), width=64, height=8))
    print("\nEL(x) over the occupancy grid:")
    print(render_ascii_curve(profile.ending.tolist(), width=64, height=8))
    print(
        "\nReading: SL(x) is when occupancy x was first reached (fraction"
        "\nof the runtime); EL(x) is how far from the end it was last held."
    )


if __name__ == "__main__":
    main()
