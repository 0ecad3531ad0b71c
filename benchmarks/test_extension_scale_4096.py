"""Extension: Fig 3/4 re-run *in regime* at 4096 ranks.

The standard ladder tops out at 512 ranks, four orders of magnitude
below the paper's 8192 processes and outside its work-per-rank regime
(EXPERIMENTS.md "Validity boundary").  The engine's byte-coded latency
rows (`repro.sim.cluster`) make 4096-rank runs affordable, and the T3H tree (~32.1M nodes, ~7.8k nodes/rank) restores
the paper's work-per-rank band.  This rung replays the Fig 3
allocation comparison and the Fig 4 scheduling latencies at that
scale, twice:

* **with NIC contention** (the calibrated ``nic_service_time``) — the
  paper's mechanism at the paper's scale: 8RR must be the worst
  allocation;
* **the control, NIC zeroed**: without the shared-injection
  penalty the 8-per-node allocations lose their handicap and the
  measured allocation spread collapses to <10% (8RR 200.1, 1/N 189.2,
  8G 184.4) — the Fig 2 regime, where the paper itself found
  allocations indistinguishable.  The asserted shape there is the
  *collapse* of the gap, which is what attributes the NIC-on ordering
  to injection contention rather than to distance.

Skipped by default (minutes of runtime); enable with::

    REPRO_EXTENDED=1 pytest benchmarks/test_extension_scale_4096.py --benchmark-only
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.bench.experiments import experiment_config, run_grid
from repro.bench.report import format_table, save_artifact
from repro.ws import run_uts

NRANKS = 4096
TREE = "T3H"
GRID = np.arange(0.05, 0.91, 0.05)
ALLOCATIONS = ("1/N", "8RR", "8G")
#: Under contention every steal is slower, idle ranks retry for longer
#: and a run processes several times the default 1e8-event livelock
#: guard (which is sized for the ladder).
CONTENDED_MAX_EVENTS = 4_000_000_000

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        not os.environ.get("REPRO_EXTENDED"),
        reason="extended-scale run; set REPRO_EXTENDED=1 to enable",
    ),
]


def _sweep():
    res = run_grid(
        TREE, NRANKS, allocation=ALLOCATIONS, trace=True, nic_service_time=0.0
    )
    return {alloc: r for (alloc,), r in res.items()}


_CONTENDED: dict = {}


def _sweep_contended():
    """The same three runs with the calibrated NIC cost on (memoised:
    the Fig 3 and Fig 4 tests share them; ``run_grid`` cannot raise
    the event budget)."""
    for alloc in ALLOCATIONS:
        if alloc not in _CONTENDED:
            _CONTENDED[alloc] = run_uts(
                experiment_config(
                    TREE,
                    NRANKS,
                    allocation=alloc,
                    selector="reference",
                    steal_policy="one",
                    trace=True,
                ),
                max_events=CONTENDED_MAX_EVENTS,
            )
    return dict(_CONTENDED)


def test_fig03_in_regime_4096_contention(once):
    results = once(_sweep_contended)
    rows = [
        [alloc, r.speedup, r.efficiency, r.failed_steals, r.events_processed]
        for alloc, r in results.items()
    ]
    print(f"== Fig 3 in regime, NIC on: x{NRANKS} ranks on {TREE} ==")
    print(
        format_table(["allocation", "speedup", "eff", "failed", "events"], rows)
    )
    save_artifact(
        "extension_scale_4096_fig03_contention",
        {
            alloc: {
                "speedup": r.speedup,
                "efficiency": r.efficiency,
                "total_time": r.total_time,
                "failed_steals": r.failed_steals,
                "events_processed": r.events_processed,
            }
            for alloc, r in results.items()
        },
    )

    speedup = {alloc: r.speedup for alloc, r in results.items()}
    # Fig 3 at the paper's rank count, with the paper's mechanism:
    # 8RR is the worst allocation (recorded: 1/N 66.0, 8G 30.8,
    # 8RR 27.9 — deterministic, so exact on rerun).
    assert speedup["8RR"] < speedup["8G"] < speedup["1/N"]
    # Eight ranks behind one port pay far more than one rank per node:
    # the control below has all three within 10% of each other.
    assert speedup["1/N"] > 2.0 * speedup["8RR"]
    # Contention costs every allocation (control: 184-200).
    assert max(speedup.values()) < 100


def test_fig04_in_regime_4096_contention(once):
    results = once(_sweep_contended)
    profile = results["1/N"].latency_profile(GRID)
    save_artifact(
        "extension_scale_4096_fig04_contention",
        {
            "occupancy": GRID.tolist(),
            "SL": profile.starting.tolist(),
            "EL": profile.ending.tolist(),
            "max_occupancy": profile.max_occupancy,
        },
    )
    # Recorded: max_occupancy 0.065, SL(5%) 0.027, EL(5%) 0.806.  The
    # machine still fills early (SL as in the control), but under
    # contention it holds even 5% occupancy for only the first fifth
    # of the run: the drain tail, 0.245 of the runtime in the control,
    # becomes most of it.
    assert profile.max_occupancy >= 0.05
    idx05 = int(np.argmin(np.abs(GRID - 0.05)))
    assert profile.starting[idx05] < 0.05
    assert profile.ending[idx05] > 0.5


def test_fig03_in_regime_4096(once):
    results = once(_sweep)
    rows = [
        [alloc, r.speedup, r.efficiency, r.failed_steals]
        for alloc, r in results.items()
    ]
    print(f"== Fig 3 in regime, NIC zeroed: x{NRANKS} ranks on {TREE} ==")
    print(format_table(["allocation", "speedup", "eff", "failed"], rows))
    save_artifact(
        "extension_scale_4096_fig03",
        {
            alloc: {
                "speedup": r.speedup,
                "efficiency": r.efficiency,
                "total_time": r.total_time,
                "failed_steals": r.failed_steals,
            }
            for alloc, r in results.items()
        },
    )

    values = [r.speedup for r in results.values()]
    # With injection cost zeroed the allocation gap collapses (< 10%):
    # Fig 3's 8RR-worst ordering is NIC-driven, and this rung is the
    # control for the contention test above.
    assert max(values) < min(values) * 1.10
    # In regime the reference extracts far more parallelism than the
    # out-of-regime ladder top (512 ranks saturates near 60).
    assert results["1/N"].speedup > 150


def test_fig04_in_regime_4096(once):
    results = once(_sweep)
    profile = results["1/N"].latency_profile(GRID)
    save_artifact(
        "extension_scale_4096_fig04",
        {
            "occupancy": GRID.tolist(),
            "SL": profile.starting.tolist(),
            "EL": profile.ending.tolist(),
            "max_occupancy": profile.max_occupancy,
        },
    )
    # Calibrated against the recorded artifact (max_occupancy 0.107,
    # SL(5%) 0.028, EL(5%) 0.245 — deterministic, so exact on rerun):
    # even in the work-per-rank regime the compressed tree's critical
    # path caps occupancy near 10% at 4096 ranks, but the machine
    # ramps to its plateau within ~3% of the runtime and holds it for
    # ~3/4 of the run — Fig 4's early-fill/late-drain shape, at the
    # occupancy level the drain tail allows.
    assert profile.max_occupancy >= 0.10
    idx05 = int(np.argmin(np.abs(GRID - 0.05)))
    assert profile.starting[idx05] < 0.05
    assert profile.ending[idx05] < 0.30
    # SL is monotone in occupancy by construction.
    sl = profile.starting[~np.isnan(profile.starting)]
    assert np.all(np.diff(sl) >= -1e-12)
