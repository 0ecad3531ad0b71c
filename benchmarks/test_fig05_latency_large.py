"""Fig 5: starting/ending scheduling latencies, large reference run.

Paper: 8192 ranks, 1/N, reference — "the large execution struggle to
provide work to most workers: only 12.5% of the processes are active
after 10% of the execution", and occupancy "never exceeded 3538
processes (43%)".  Scaled stand-in: the large ladder's top (512) on
T3L: occupancy builds far more slowly than in Fig 4's small run and
the run tails off with many ranks starved.
"""

from __future__ import annotations

import numpy as np

from repro.bench.experiments import run_grid
from repro.bench.report import format_series, save_artifact

from benchmarks._shared import LARGE, TOP

GRID = np.arange(0.05, 1.001, 0.05)


def _profile():
    return run_grid(**LARGE, nranks=TOP)[()].latency_profile(GRID)


def test_fig05_large_scale_latencies(once):
    profile = once(_profile)
    curves = {
        "SL": profile.starting.tolist(),
        "EL": profile.ending.tolist(),
    }
    print(
        format_series(
            "Fig 5: SL/EL vs occupancy, reference, large run",
            "occupancy",
            [round(float(x), 2) for x in GRID],
            curves,
        )
    )
    save_artifact(
        "fig05",
        {"occupancy": GRID.tolist(), **curves, "max_occupancy": profile.max_occupancy},
    )

    # Paper shape: the large reference run is starved — occupancy never
    # gets anywhere near full (paper: peaked at 43% on 8192 ranks; the
    # compressed ladder starves even harder).
    assert profile.max_occupancy < 0.6
    # Even low occupancies take a substantial slice of the runtime to
    # reach (paper: "only 12.5% of the processes are active after 10%
    # of the execution").
    idx10 = int(np.argmin(np.abs(GRID - 0.10)))
    sl10 = profile.starting[idx10]
    el10 = profile.ending[idx10]
    assert not np.isnan(sl10)
    assert sl10 > 0.005
    assert np.isnan(el10) or el10 > 0.05
