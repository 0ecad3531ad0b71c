"""Extension: the paper's §VII future work — scaling past the ladder.

"Studying the scalability of UTS past tens of thousands of processes
is a natural extension of this study."  This opt-in experiment pushes
the simulation to 1024 ranks (2x the standard ladder's top, already
far past the scaled tree's parallel width) and records how each
strategy degrades.

Skipped by default (it adds minutes of runtime); enable with::

    REPRO_EXTENDED=1 pytest benchmarks/test_extension_scale.py --benchmark-only
"""

from __future__ import annotations

import os

import pytest

from repro.bench.experiments import run_grid
from repro.bench.report import format_table, save_artifact

from benchmarks._shared import LARGE

NRANKS = 1024

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        not os.environ.get("REPRO_EXTENDED"),
        reason="extended-scale run; set REPRO_EXTENDED=1 to enable",
    ),
]


def _rows():
    plain = run_grid(**LARGE, nranks=NRANKS, selector=("reference", "rand"))
    half = run_grid(**LARGE, nranks=NRANKS, selector="tofu", steal_policy="half")
    runs = {
        "Reference": plain[("reference",)],
        "Rand": plain[("rand",)],
        "Tofu Half": half[()],
    }
    return [
        [label, r.speedup, r.occupancy_curve().max_occupancy, r.failed_steals]
        for label, r in runs.items()
    ]


def test_extension_extended_scale(once):
    rows = once(_rows)
    print(f"== Extension: x{NRANKS} ranks (past the scaled tree's width) ==")
    print(format_table(["strategy", "speedup", "max_occ", "failed"], rows))
    save_artifact("extension_scale", {"rows": rows})
    # Sanity only: all runs complete and conserve (conservation is
    # asserted inside the simulator); occupancy ceilings are expected.
    for row in rows:
        assert row[1] > 0
