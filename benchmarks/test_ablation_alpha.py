"""Ablation: the distance-weight exponent ``alpha`` in ``1/e(i,j)^alpha``.

The paper fixes ``alpha = 1``; this sweep checks how sensitive the
result is: ``alpha = 0`` must coincide with uniform random (the same
distribution), and moderate skews should not be catastrophically worse
than the paper's choice.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import CALIBRATION, cached_run, experiment_config
from repro.bench.report import format_series, save_artifact

ALPHAS = (0.0, 0.5, 1.0, 2.0, 4.0)
NRANKS = 256


def _series():
    speedups = []
    for alpha in ALPHAS:
        r = cached_run(
            experiment_config(
                CALIBRATION.large_tree,
                NRANKS,
                allocation="1/N",
                selector=f"skew[{alpha}]",
                steal_policy="half",
                trace=True,
            )
        )
        speedups.append(r.speedup)
    rand = cached_run(
        experiment_config(
            CALIBRATION.large_tree,
            NRANKS,
            allocation="1/N",
            selector="rand",
            steal_policy="half",
            trace=True,
        )
    )
    return speedups, rand.speedup


def test_ablation_skew_exponent(once):
    speedups, rand_speedup = once(_series)
    print(
        format_series(
            f"Ablation: skew exponent alpha (x{NRANKS}, 1/N, steal-half)",
            "alpha",
            ALPHAS,
            {"speedup": speedups, "rand": [rand_speedup] * len(ALPHAS)},
        )
    )
    save_artifact(
        "ablation_alpha",
        {"alpha": list(ALPHAS), "speedup": speedups, "rand": rand_speedup},
    )

    # alpha = 0 is the uniform distribution: parity with rand expected
    # (different RNG stream -> small noise band).
    assert abs(speedups[0] - rand_speedup) / rand_speedup < 0.25


@pytest.mark.xfail(
    strict=True,
    reason="alpha = 1 gives 51.44 < 54.74 for alpha = 0 at 256 ranks "
    "since commit 2ddd56f broke equal-time event ties by (pusher, seq) "
    "instead of global insertion order",
)
def test_ablation_paper_alpha_beats_uniform(once):
    speedups, _ = once(_series)
    # The paper's alpha = 1 beats the uniform end of the sweep.
    assert speedups[ALPHAS.index(1.0)] > speedups[0]
