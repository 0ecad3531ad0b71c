"""Fig 16: victim-selection improvement vs work granularity.

Paper: sweeping the SHA rounds per node creation (1—24) on 8192 nodes,
"as granularity increases, the difference in improvement between the
two random strategies diminishes.  Indeed, as each steal provides more
work (in compute time) to the thief, the impact of varying latencies
between steal requests on work balance is lowered."

The y-value is the runtime improvement of Rand-Half and Tofu-Half over
Reference-Half at the same granularity.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import CALIBRATION, cached_run, experiment_config
from repro.bench.report import format_series, save_artifact

ROUNDS = (1, 2, 4, 8, 16, 24)
NRANKS = 256  # top scale affordable for a 6-point granularity sweep


def _run(selector: str, rounds: int):
    return cached_run(
        experiment_config(
            CALIBRATION.large_tree,
            NRANKS,
            allocation="1/N",
            selector=selector,
            steal_policy="half",
            compute_rounds=rounds,
            trace=True,
        )
    )


def _series():
    curves = {"Rand Half": [], "Tofu Half": []}
    for rounds in ROUNDS:
        base = _run("reference", rounds).total_time
        for label, sel in (("Rand Half", "rand"), ("Tofu Half", "tofu")):
            t = _run(sel, rounds).total_time
            curves[label].append(100.0 * (base - t) / base)
    return curves


def test_fig16_granularity_sweep(once):
    curves = once(_series)
    print(
        format_series(
            "Fig 16: runtime improvement over Reference Half (%) vs SHA rounds",
            "rounds",
            ROUNDS,
            curves,
        )
    )
    save_artifact("fig16", {"rounds": list(ROUNDS), "curves": curves})

    # Paper shape: "as granularity increases, the difference in
    # improvement between the two random strategies diminishes" — both
    # improvement curves collapse toward zero as each stolen node
    # carries more compute time.
    for name in ("Tofu Half", "Rand Half"):
        series = curves[name]
        assert series[0] > series[-1] + 5.0, name  # strong decline
        assert abs(series[-1]) < 10.0, name  # and hardly at coarse grain
    # The selector matters at fine grain (Tofu Half: strict xfail below).
    assert curves["Rand Half"][0] > 15.0
    # The tofu-vs-rand gap at coarse granularity is within noise.
    coarse_gap = curves["Tofu Half"][-1] - curves["Rand Half"][-1]
    assert abs(coarse_gap) < 5.0


@pytest.mark.xfail(
    strict=True,
    reason="Tofu Half improves 12.25% at 1 round, under the 15% floor, "
    "since commit 2ddd56f broke equal-time event ties by (pusher, seq) "
    "instead of global insertion order",
)
def test_fig16_tofu_half_matters_at_fine_grain(once):
    assert once(_series)["Tofu Half"][0] > 15.0
