"""Fig 13: ending latencies, reference vs optimised (Tofu Half).

Paper: "the optimized version maintains a high occupancy until late in
the execution."  At the reproduction's largest in-regime scale (256
ranks, see EXPERIMENTS.md) the optimised version sustains occupancy
levels the reference never reaches at all — its EL curve extends to
~90% occupancy while the reference's stops below 50%.
"""

from __future__ import annotations

import numpy as np

from repro.bench.experiments import LARGE_LADDER, run_grid
from repro.bench.report import format_series, save_artifact

from benchmarks._shared import LARGE

GRID = np.arange(0.05, 1.001, 0.05)
SCALE = LARGE_LADDER[-2]


def _profiles():
    ref = run_grid(**LARGE, nranks=SCALE)[()]
    opt = run_grid(**LARGE, nranks=SCALE, selector="tofu", steal_policy="half")[()]
    return ref.latency_profile(GRID), opt.latency_profile(GRID)


def test_fig13_ending_latency_comparison(once):
    ref, opt = once(_profiles)
    curves = {
        "Reference EL": ref.ending.tolist(),
        "Tofu Half EL": opt.ending.tolist(),
    }
    print(
        format_series(
            f"Fig 13: ending latency, reference vs Tofu Half (x{SCALE}, 1/N)",
            "occupancy",
            [round(float(x), 2) for x in GRID],
            curves,
        )
    )
    save_artifact(
        "fig13",
        {
            "occupancy": GRID.tolist(),
            **curves,
            "ref_max_occupancy": ref.max_occupancy,
            "opt_max_occupancy": opt.max_occupancy,
        },
    )

    # Paper shape: the optimised version sustains occupancy levels the
    # reference never reaches at all.
    ref_reached = GRID[~np.isnan(ref.ending)]
    opt_reached = GRID[~np.isnan(opt.ending)]
    assert opt_reached.max() > ref_reached.max() + 0.2
    assert opt.max_occupancy > ref.max_occupancy + 0.2
    # Valid fractions everywhere.
    for series in (ref.ending, opt.ending):
        vals = series[~np.isnan(series)]
        assert np.all((vals >= 0.0) & (vals <= 1.0))
