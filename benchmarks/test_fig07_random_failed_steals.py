"""Fig 7: number of failed steals, random vs reference selection.

Paper: "the number of failed steals decreases significantly by using a
random victim selection strategy" (for the 1/N allocation).
"""

from __future__ import annotations

from repro.bench.experiments import LARGE_LADDER, run_grid
from repro.bench.report import format_series, save_artifact

from benchmarks._shared import ALLOCATIONS, LARGE, by_allocation


def _series():
    ref = run_grid(**LARGE, nranks=LARGE_LADDER, allocation=("1/N",))
    rand = run_grid(
        **LARGE, nranks=LARGE_LADDER, selector="rand", allocation=ALLOCATIONS
    )
    return {
        **by_allocation(ref, "failed_steals", "Reference", allocations=("1/N",)),
        **by_allocation(rand, "failed_steals", "Rand"),
    }


def test_fig07_failed_steals(once):
    curves = once(_series)
    print(
        format_series(
            "Fig 7: failed steals, random selection vs reference",
            "nranks",
            LARGE_LADDER,
            curves,
        )
    )
    save_artifact("fig07", {"x": list(LARGE_LADDER), "curves": curves})

    # Failed steals grow with scale for every strategy (paper Fig 7's
    # x-trend), and the counts are substantial at the top scale.
    for name, series in curves.items():
        assert series[-1] > series[0], name
    assert curves["Reference 1/N"][-1] > 10_000
