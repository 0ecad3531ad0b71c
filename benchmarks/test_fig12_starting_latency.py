"""Fig 12: starting latencies, reference vs optimised (Tofu Half).

Paper (8192 ranks, 1/N): "while the reference implementation is
struggling to provide work to most processes during the whole
execution, the optimized version achieves a higher occupancy
significantly faster."
"""

from __future__ import annotations

import numpy as np

from repro.bench.experiments import run_grid
from repro.bench.report import format_series, save_artifact

from benchmarks._shared import LARGE, TOP

GRID = np.arange(0.05, 1.001, 0.05)


def _profiles():
    ref = run_grid(**LARGE, nranks=TOP)[()]
    opt = run_grid(**LARGE, nranks=TOP, selector="tofu", steal_policy="half")[()]
    return ref.latency_profile(GRID), opt.latency_profile(GRID)


def test_fig12_starting_latency_comparison(once):
    ref, opt = once(_profiles)
    curves = {
        "Reference SL": ref.starting.tolist(),
        "Tofu Half SL": opt.starting.tolist(),
    }
    print(
        format_series(
            "Fig 12: starting latency, reference vs Tofu Half (top scale, 1/N)",
            "occupancy",
            [round(float(x), 2) for x in GRID],
            curves,
        )
    )
    save_artifact(
        "fig12",
        {
            "occupancy": GRID.tolist(),
            **curves,
            "ref_max_occupancy": ref.max_occupancy,
            "opt_max_occupancy": opt.max_occupancy,
        },
    )

    # Paper shape: the optimised version reaches at least the same
    # occupancy, and reaches mid occupancies no later.
    assert opt.max_occupancy >= ref.max_occupancy * 0.95
    both = ~(np.isnan(ref.starting) | np.isnan(opt.starting))
    mid = both & (GRID >= 0.3) & (GRID <= 0.7)
    if mid.any():
        assert np.nanmean(opt.starting[mid]) <= np.nanmean(ref.starting[mid]) * 1.2
