"""Fig 14: average search time of a process.

Paper: "taking into account network latencies and stealing half the
chunks of the victim greatly diminishes the time spent searching for
work."
"""

from __future__ import annotations

from repro.bench.experiments import LARGE_LADDER, run_grid
from repro.bench.report import format_series, save_artifact

from benchmarks._shared import ALLOCATIONS, LARGE, by_allocation


def _series():
    ref = run_grid(**LARGE, nranks=LARGE_LADDER, allocation=("1/N",))
    opt = run_grid(
        **LARGE,
        nranks=LARGE_LADDER,
        selector="tofu",
        steal_policy="half",
        allocation=ALLOCATIONS,
    )
    ms = "mean_search_time"
    return {
        **by_allocation(ref, ms, "Reference", allocations=("1/N",), scale=1e3),
        **by_allocation(opt, ms, "Tofu Half", scale=1e3),
    }


def test_fig14_average_search_time(once):
    curves = once(_series)
    print(
        format_series(
            "Fig 14: average per-process search time (ms)",
            "nranks",
            LARGE_LADDER,
            curves,
        )
    )
    save_artifact("fig14", {"x": list(LARGE_LADDER), "curves": curves})

    # Paper shape: the optimised 1/N spends far less time searching
    # than the reference at top scale.
    assert curves["Tofu Half 1/N"][-1] < curves["Reference 1/N"][-1]
    # Search time grows with scale for the reference (work gets scarce).
    ref = curves["Reference 1/N"]
    assert ref[-1] > ref[0]
