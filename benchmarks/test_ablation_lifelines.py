"""Ablation: lifeline scheme (Saraswat et al.) vs plain stealing.

The paper's related work positions lifelines as the contention-control
alternative to victim-selection tuning.  The comparison here: same
selector, with and without lifelines — lifelines should slash failed
steals (idle ranks quiesce instead of hammering).
"""

from __future__ import annotations

from repro.bench.experiments import run_grid
from repro.bench.report import format_table, save_artifact

from benchmarks._shared import LARGE

NRANKS = 256


def _rows():
    rand = run_grid(**LARGE, nranks=NRANKS, selector="rand", lifelines=(0, 2, 4))
    tofu = run_grid(**LARGE, nranks=NRANKS, selector="tofu", steal_policy="half")
    runs = {
        "rand, no lifelines": rand[(0,)],
        "rand + 2 lifelines": rand[(2,)],
        "rand + 4 lifelines": rand[(4,)],
        "tofu/half, no lifelines": tofu[()],
    }
    return [
        [label, r.speedup, r.failed_steals, r.mean_search_time * 1e3]
        for label, r in runs.items()
    ]


def test_ablation_lifelines(once):
    rows = once(_rows)
    print("== Ablation: lifelines (x%d, 1/N) ==" % NRANKS)
    print(format_table(["variant", "speedup", "failed", "search_ms"], rows))
    save_artifact(
        "ablation_lifelines",
        {"rows": [[r[0], r[1], r[2], r[3]] for r in rows]},
    )

    by_label = {r[0]: r for r in rows}
    base_failed = by_label["rand, no lifelines"][2]
    life_failed = by_label["rand + 2 lifelines"][2]
    # Lifelines cut failed steals dramatically.
    assert life_failed < base_failed / 2
    # And do not destroy throughput (within 40% of plain rand).
    assert by_label["rand + 2 lifelines"][1] > by_label["rand, no lifelines"][1] * 0.6
