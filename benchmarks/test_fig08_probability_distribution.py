"""Fig 8: the skewed victim probability distribution ``p(0, x)``.

Paper: "Probability distribution function of p(0,x) for a example
deployment on the K Computer over 1024 MPI processes, 1 per node" —
probabilities spread between ~8e-4 and ~4e-3, higher for physically
close ranks.  We regenerate it for a 1024-rank 1/N deployment of the
Tofu model.
"""

from __future__ import annotations

import numpy as np

from repro.bench.report import render_ascii_curve, save_artifact
from repro.core.victim import DistanceSkewedSelector
from repro.net.allocation import build_placement

NRANKS = 1024


def _distribution():
    placement = build_placement(NRANKS, "1/N")
    return placement, DistanceSkewedSelector().probabilities(0, placement)


def test_fig08_probability_distribution(once):
    placement, probs = once(_distribution)
    print("== Fig 8: p(0, x) over a 1024-rank 1/N deployment ==")
    print(render_ascii_curve(probs.tolist(), width=72, height=10))
    print(
        f"min={probs[probs > 0].min():.3e} max={probs.max():.3e} "
        f"uniform={1 / (NRANKS - 1):.3e}"
    )
    save_artifact(
        "fig08",
        {
            "rank": list(range(NRANKS)),
            "p": probs.tolist(),
            "uniform": 1 / (NRANKS - 1),
        },
    )

    # Normalised, zero self-probability, everyone reachable.
    assert probs[0] == 0.0
    assert probs.sum() == 1.0 or abs(probs.sum() - 1.0) < 1e-12
    assert np.all(probs[1:] > 0.0)
    # Paper shape: a few-times spread between nearest and farthest
    # victims (their figure spans roughly 8e-4 to 4e-3).
    ratio = probs.max() / probs[probs > 0].min()
    assert 2.0 < ratio < 50.0
    # Probability decreases with physical distance.
    e = placement.euclidean.row(0)[1:]
    p = probs[1:]
    order = np.argsort(e)
    assert np.all(np.diff(p[order]) <= 1e-15)
