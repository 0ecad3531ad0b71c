"""Fig 11: speedup of the steal-half variants.

Paper: "the combined use of our skewed victim selection and
half-stealing performs 3 times better than the original.  More
importantly, this last version is able to speedup up to 8192 MPI
processes."
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import LARGE_LADDER, run_grid
from repro.bench.report import format_series, save_artifact

from benchmarks._shared import LARGE

#: Curve label -> (selector, steal policy); every run is 1/N.
VARIANTS = {
    "Reference": ("reference", "one"),
    "Reference Half": ("reference", "half"),
    "Tofu": ("tofu", "one"),
    "Rand Half": ("rand", "half"),
    "Tofu Half": ("tofu", "half"),
}


def _series():
    res = {
        **run_grid(
            **LARGE,
            nranks=LARGE_LADDER,
            selector=("reference", "tofu"),
            steal_policy=("one", "half"),
        ),
        **run_grid(
            **LARGE, nranks=LARGE_LADDER, selector=("rand",), steal_policy=("half",)
        ),
    }
    return {
        name: [res[(n, *variant)].speedup for n in LARGE_LADDER]
        for name, variant in VARIANTS.items()
    }


def test_fig11_steal_half_speedup(once):
    curves = once(_series)
    print(
        format_series(
            "Fig 11: speedup of steal-half variants (1/N)",
            "nranks",
            LARGE_LADDER,
            curves,
        )
    )
    save_artifact("fig11", {"x": list(LARGE_LADDER), "curves": curves})

    # The compressed ladder's last point (512 ranks on a ~6.7e5-node
    # tree) sits beyond the scaled tree's parallel width, where every
    # variant collapses (paper's 8192-rank runs had ~4 orders of
    # magnitude more work per rank); the paper shapes are asserted at
    # the largest in-regime scale, see EXPERIMENTS.md.
    at = {name: series[-2] for name, series in curves.items()}
    # Paper shape 1 (Tofu Half is the best variant) is the strict xfail
    # below.
    # Paper shape 2: a clear factor over the unmodified reference
    # (paper: ~3x at 8192; the compressed ladder shows >= 1.25x).
    assert at["Tofu Half"] > 1.25 * at["Reference"]
    # Paper shape 3: Tofu Half dominates the plain reference at every
    # scale of the ladder, including the collapsed top.
    for th, ref in zip(curves["Tofu Half"], curves["Reference"]):
        assert th > ref
    # Half-stealing helps the reference too, at every scale.
    for rh, ref in zip(curves["Reference Half"], curves["Reference"]):
        assert rh >= ref


@pytest.mark.xfail(
    strict=True,
    reason="Tofu Half 51.44 < Rand Half 56.03 at 256 ranks (57.99 before) "
    "since commit 2ddd56f broke equal-time event ties by (pusher, seq) "
    "instead of global insertion order",
)
def test_fig11_tofu_half_is_best(once):
    at = {name: series[-2] for name, series in once(_series).items()}
    # Paper shape 1: Tofu Half is the best variant.
    assert at["Tofu Half"] == max(at.values())
