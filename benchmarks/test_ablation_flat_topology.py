"""Ablation: the equidistant null model.

"Most studies of work stealing assume that all participating processes
are equidistant from each other" — under that assumption (the
:class:`~repro.net.topology.FlatTopology` + uniform latency), the
distance-skewed selector has nothing to exploit and must coincide with
uniform random.  This is the control experiment for the whole paper.
"""

from __future__ import annotations

from repro.bench.experiments import CALIBRATION, cached_run, experiment_config
from repro.bench.report import format_table, save_artifact
from repro.net.latency import UniformLatency

NRANKS = 256


def _rows():
    rows = []
    for selector in ("rand", "tofu"):
        r = cached_run(
            experiment_config(
                CALIBRATION.large_tree,
                NRANKS,
                allocation="1/N",
                selector=selector,
                steal_policy="half",
                latency_model=UniformLatency(2e-6),
                topology_factory="flat",
                trace=True,
            )
        )
        rows.append([selector, r.speedup, r.failed_steals])
    return rows


def test_ablation_equidistant_null_model(once):
    rows = once(_rows)
    print("== Ablation: equidistant (flat) topology, x%d ==" % NRANKS)
    print(format_table(["selector", "speedup", "failed"], rows))
    save_artifact("ablation_flat", {"rows": rows})

    rand_sp = rows[0][1]
    tofu_sp = rows[1][1]
    # With no distances to exploit, tofu degenerates to uniform random:
    # parity within a noise band.
    assert abs(tofu_sp - rand_sp) / rand_sp < 0.2
