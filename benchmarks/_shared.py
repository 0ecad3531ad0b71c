"""What the large-scale figures share.

Figs 3, 5—7 and 9—15 read runs of the same grids: the large tree,
traced, over the large ladder or at one of its scales.  Each figure
runs its own grids through :func:`repro.bench.run_grid`, whose memo
makes the overlap free: each distinct simulation happens once per
pytest session.
"""

from __future__ import annotations

from repro.bench.experiments import CALIBRATION, LARGE_LADDER

ALLOCATIONS = ("1/N", "8RR", "8G")

#: The fixed fields of every large-scale run; a figure adds ``nranks``
#: and its axes.
LARGE = {"tree": CALIBRATION.large_tree, "trace": True}

#: The scale standing in for the paper's 8192-process runs.
TOP = LARGE_LADDER[-1]


def by_allocation(res, metric: str, label: str, allocations=ALLOCATIONS, scale=1):
    """``{"<label> <allocation>": [metric per rank count]}`` from a grid
    keyed ``(nranks, allocation)``."""
    return {
        f"{label} {a}": [
            getattr(r, metric) * scale for (_, b), r in res.items() if b == a
        ]
        for a in allocations
    }
