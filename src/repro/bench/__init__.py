"""Experiment harness regenerating the paper's tables and figures.

* :mod:`repro.bench.experiments` — the calibrated configuration space
  (scaled trees, rank ladders, latency model), the run grid every
  figure, ablation and tournament is built from (:func:`grid`,
  :func:`run_grid`) and a memoised runner so that benchmarks sharing
  underlying runs (e.g. Figs 3/7/10/14/15 all reuse the same grids)
  execute each simulation exactly once;
* :mod:`repro.bench.report` — paper-style series/table rendering.
"""

from repro.bench.experiments import (
    CALIBRATION,
    LARGE_LADDER,
    SMALL_LADDER,
    Calibration,
    clear_cache,
    experiment_config,
    grid,
    run_grid,
)
from repro.bench.report import format_series, format_table, render_ascii_curve

__all__ = [
    "CALIBRATION",
    "LARGE_LADDER",
    "SMALL_LADDER",
    "Calibration",
    "clear_cache",
    "experiment_config",
    "format_series",
    "format_table",
    "grid",
    "render_ascii_curve",
    "run_grid",
]
