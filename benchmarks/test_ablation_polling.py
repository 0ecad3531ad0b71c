"""Ablation: polling interval (nodes expanded between message polls).

The reference MPI code polls every node or two; coarser polling delays
steal responses (the victim answers only at poll boundaries).  The
sweep quantifies that trade-off.
"""

from __future__ import annotations

from repro.bench.experiments import run_grid
from repro.bench.report import format_series, save_artifact

from benchmarks._shared import LARGE

POLLS = (1, 2, 5, 10, 50)
NRANKS = 128


def _series():
    runs = run_grid(
        **LARGE,
        nranks=NRANKS,
        selector="tofu",
        steal_policy="half",
        poll_interval=POLLS,
    ).values()
    return [r.speedup for r in runs], [r.mean_session_duration * 1e6 for r in runs]


def test_ablation_poll_interval(once):
    speedups, sessions = once(_series)
    print(
        format_series(
            f"Ablation: poll interval (x{NRANKS}, tofu/half, 1/N)",
            "poll",
            POLLS,
            {"speedup": speedups, "session_us": sessions},
        )
    )
    save_artifact(
        "ablation_poll",
        {"poll": list(POLLS), "speedup": speedups, "session_us": sessions},
    )

    # Very coarse polling hurts: 50-node polls are worse than 1-2.
    assert max(speedups[:2]) > speedups[-1] * 0.95
    # Sessions lengthen when victims poll rarely.
    assert sessions[-1] > sessions[0] * 0.8
