"""Fig 2: efficiency of the reference implementation at small scale.

Paper: 8—128 MPI processes, tree T3XXL, allocations 1/N / 8RR / 8G —
"this UTS implementation performs very well for small numbers of MPI
processes" and the three allocations are nearly indistinguishable.
Scaled stand-in: 8—64 ranks on T3M.
"""

from __future__ import annotations

import numpy as np

from repro.bench.experiments import CALIBRATION, SMALL_LADDER, run_grid
from repro.bench.report import format_series, save_artifact

from benchmarks._shared import ALLOCATIONS, by_allocation


def _series():
    res = run_grid(
        CALIBRATION.small_tree, SMALL_LADDER, allocation=ALLOCATIONS, trace=True
    )
    return by_allocation(res, "efficiency", "Reference")


def test_fig02_small_scale_efficiency(once):
    curves = once(_series)
    print(
        format_series(
            "Fig 2: efficiency, reference selector, small scale",
            "nranks",
            SMALL_LADDER,
            curves,
        )
    )
    save_artifact("fig02", {"x": list(SMALL_LADDER), "curves": curves})

    for name, series in curves.items():
        # Paper shape: high efficiency at small scale...
        assert series[0] > 0.9, f"{name} at 8 ranks should be near-ideal"
        assert min(series[:3]) > 0.75
        # ...and monotone decay with scale (no cliff inside the band).
        assert all(b <= a * 1.05 for a, b in zip(series, series[1:]))
    # Allocations nearly indistinguishable at small scale (< 10% spread).
    arr = np.array(list(curves.values()))
    spread = (arr.max(axis=0) - arr.min(axis=0)) / arr.mean(axis=0)
    assert spread.max() < 0.15
