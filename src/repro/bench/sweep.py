"""Parameter sweeps over the experiment space.

Sweeps are the batch workload of the repo: every figure is a grid of
independent runs.  They are built as config lists and executed through
:func:`repro.bench.experiments.run_configs`, which layers the
in-process memo, the optional on-disk cache and the
:mod:`repro.exec` worker pool (``--jobs``) under one roof.
"""

from __future__ import annotations

from typing import Iterable

from repro.bench.experiments import experiment_config, run_configs
from repro.uts.params import TreeParams
from repro.ws.results import RunResult

__all__ = ["sweep"]


def sweep(
    tree: TreeParams | str,
    ladder: Iterable[int],
    allocations: Iterable[str] = ("1/N",),
    selector: str = "reference",
    steal_policy: str = "one",
    **overrides,
) -> dict[tuple[int, str], RunResult]:
    """Run ``selector/steal_policy`` over ``ladder x allocations``.

    Returns ``{(nranks, allocation): RunResult}``; results come from
    the shared memo cache, so overlapping sweeps are free.  The grid
    is executed as one batch: with the harness-wide
    :func:`~repro.bench.experiments.configure` worker count above 1,
    its points run on worker processes in parallel.
    """
    keys: list[tuple[int, str]] = []
    configs = []
    for nranks in ladder:
        for allocation in allocations:
            keys.append((nranks, allocation))
            configs.append(
                experiment_config(
                    tree,
                    nranks,
                    allocation=allocation,
                    selector=selector,
                    steal_policy=steal_policy,
                    **overrides,
                )
            )
    results = run_configs(configs)
    return dict(zip(keys, results))
