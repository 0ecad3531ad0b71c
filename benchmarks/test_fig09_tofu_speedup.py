"""Fig 9: speedup with the distance-skewed ("Tofu") victim selection.

Paper: "the performance of our benchmark is improved by this new
victim selection strategy ... all allocations strategies perform
better than with the classical random selection for the same
allocation".
"""

from __future__ import annotations

from repro.bench.experiments import LARGE_LADDER, run_grid
from repro.bench.report import format_series, save_artifact

from benchmarks._shared import ALLOCATIONS, LARGE, by_allocation


def _series():
    tofu = run_grid(
        **LARGE, nranks=LARGE_LADDER, selector="tofu", allocation=ALLOCATIONS
    )
    rand = run_grid(
        **LARGE, nranks=LARGE_LADDER, selector="rand", allocation=ALLOCATIONS
    )
    return {
        **by_allocation(tofu, "speedup", "Tofu"),
        **by_allocation(rand, "speedup", "Rand", allocations=("1/N", "8G")),
    }


def test_fig09_tofu_speedup(once):
    curves = once(_series)
    print(
        format_series(
            "Fig 9: speedup, skewed (Tofu) selection vs random",
            "nranks",
            LARGE_LADDER,
            curves,
        )
    )
    save_artifact("fig09", {"x": list(LARGE_LADDER), "curves": curves})

    # Paper shape: tofu beats rand for the same allocation at top scale.
    assert curves["Tofu 1/N"][-1] > curves["Rand 1/N"][-1]
    assert curves["Tofu 8G"][-1] >= curves["Rand 8G"][-1] * 0.95
    # Tofu 1/N scales into the ladder (peak at or above its start);
    # sustained scaling to the top needs steal-half (Fig 11).
    assert max(curves["Tofu 1/N"]) >= curves["Tofu 1/N"][0]
