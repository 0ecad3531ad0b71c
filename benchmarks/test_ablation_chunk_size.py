"""Ablation: chunk size (the steal granularity).

The paper fixes 20 nodes/chunk, citing Olivier et al. that chunking is
a significant win; this sweep verifies the choice sits on the flat part
of the curve: tiny chunks pay steal overhead per handful of nodes,
huge chunks strangle work availability (the private-chunk rule locks
more work away).
"""

from __future__ import annotations

from repro.bench.experiments import run_grid
from repro.bench.report import format_series, save_artifact

from benchmarks._shared import LARGE

CHUNKS = (2, 5, 20, 50, 100)
NRANKS = 128


def _series():
    res = run_grid(
        **LARGE, nranks=NRANKS, selector="tofu", steal_policy="half", chunk_size=CHUNKS
    )
    return [r.speedup for r in res.values()]


def test_ablation_chunk_size(once):
    speedups = once(_series)
    print(
        format_series(
            f"Ablation: chunk size (x{NRANKS}, tofu/half, 1/N)",
            "chunk",
            CHUNKS,
            {"speedup": speedups},
        )
    )
    save_artifact("ablation_chunk", {"chunk": list(CHUNKS), "speedup": speedups})

    by_chunk = dict(zip(CHUNKS, speedups))
    # The paper's 20 is within 30% of the best of the sweep.
    assert by_chunk[20] > max(speedups) * 0.7
    # The extreme ends are not better than the default.
    assert by_chunk[20] >= by_chunk[100] * 0.9
