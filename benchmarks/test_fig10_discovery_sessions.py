"""Fig 10: average duration of a work-discovery session.

Paper: "A work discovery session starts when a process exhaust its
work and ends with either work in the queue or application
termination ... the topology-specific victim selection strategy
results in much faster work discovery."
"""

from __future__ import annotations

from repro.bench.experiments import LARGE_LADDER, run_grid
from repro.bench.report import format_series, save_artifact

from benchmarks._shared import ALLOCATIONS, LARGE, by_allocation


def _series():
    ref = run_grid(**LARGE, nranks=LARGE_LADDER, allocation=("1/N",))
    rand = run_grid(**LARGE, nranks=LARGE_LADDER, selector="rand", allocation=("1/N",))
    tofu = run_grid(
        **LARGE, nranks=LARGE_LADDER, selector="tofu", allocation=ALLOCATIONS
    )
    ms = "mean_session_duration"
    return {
        **by_allocation(ref, ms, "Reference", allocations=("1/N",), scale=1e3),
        **by_allocation(rand, ms, "Rand", allocations=("1/N",), scale=1e3),
        **by_allocation(tofu, ms, "Tofu", scale=1e3),
    }


def test_fig10_work_discovery_sessions(once):
    curves = once(_series)
    print(
        format_series(
            "Fig 10: average work-discovery session duration (ms)",
            "nranks",
            LARGE_LADDER,
            curves,
        )
    )
    save_artifact("fig10", {"x": list(LARGE_LADDER), "curves": curves})

    # Paper shape: skewed selection finds work faster than uniform
    # random at the same (1/N) allocation, at the top scale.
    assert curves["Tofu 1/N"][-1] < curves["Rand 1/N"][-1]
    # Sessions are sub-runtime sane values (ms-scale here).
    for series in curves.values():
        assert all(0.0 <= v < 1e3 for v in series)
