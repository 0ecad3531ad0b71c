"""Fig 3: speedup of the reference implementation at large scale.

Paper: 1024—8192 processes on T3WL; the reference "does not scale past
2048 nodes" and "allocating successive ranks to different compute
nodes [8RR] results in the worse performance observed".  Scaled
stand-in: 64—512 ranks on T3L.
"""

from __future__ import annotations

from repro.bench.experiments import LARGE_LADDER, run_grid
from repro.bench.report import format_series, save_artifact

from benchmarks._shared import ALLOCATIONS, LARGE, by_allocation


def _series():
    res = run_grid(**LARGE, nranks=LARGE_LADDER, allocation=ALLOCATIONS)
    return by_allocation(res, "speedup", "Reference")


def test_fig03_reference_large_speedup(once):
    curves = once(_series)
    print(
        format_series(
            "Fig 3: speedup, reference selector, large scale",
            "nranks",
            LARGE_LADDER,
            curves,
        )
    )
    save_artifact("fig03", {"x": list(LARGE_LADDER), "curves": curves})

    one_n = curves["Reference 1/N"]
    rr = curves["Reference 8RR"]
    g = curves["Reference 8G"]
    # Paper shape 1: scaling saturates — the top-of-ladder gain over the
    # previous scale is far below the ideal 2x.
    assert one_n[-1] < one_n[-2] * 1.5
    # Paper shape 2: 8RR (consecutive ranks on different nodes, in
    # conflict with the ring walk) is the worst allocation at scale.
    assert rr[-1] <= g[-1]
    assert rr[-1] <= one_n[-1]
