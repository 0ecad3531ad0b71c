#!/usr/bin/env python
"""Topology and placement study: how rank numbering meets physical
distance.

Reproduces the machinery behind the paper's Fig 8 and its allocation
comparison:

1. build a Tofu-model deployment for a job;
2. show the latency structure each allocation (1/N, 8RR, 8G) induces
   between *consecutive ranks* — the pairs the reference round-robin
   selector steals between;
3. print the distance-skewed victim distribution p(0, x) and how much
   probability mass each strategy puts within 1 hop.

Usage::

    python examples/topology_placement.py [nranks]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.bench.report import format_table, render_ascii_curve
from repro.core.victim import skewed_probabilities
from repro.net.allocation import build_placement


def main() -> None:
    nranks = int(sys.argv[1]) if len(sys.argv) > 1 else 256

    rows = []
    placements = {}
    for alloc in ("1/N", "8RR", "8G"):
        p = build_placement(nranks, alloc)
        placements[alloc] = p
        neighbour_lat = np.array(
            [p.latency.value(i, i + 1) for i in range(nranks - 1)]
        )
        off_diag = np.concatenate(
            [np.delete(p.latency.row(i), i) for i in range(nranks)]
        )
        hops = p.topology.hops_rows(p.rank_nodes)
        rows.append(
            [
                alloc,
                p.num_nodes_used,
                neighbour_lat.mean() * 1e6,
                off_diag.mean() * 1e6,
                off_diag.max() * 1e6,
                int(max(hops(i).max() for i in range(nranks))),
            ]
        )
    print(f"Deployment of {nranks} ranks on the Tofu model:\n")
    print(
        format_table(
            [
                "alloc",
                "nodes",
                "neigh_lat_us",
                "mean_lat_us",
                "max_lat_us",
                "max_hops",
            ],
            rows,
        )
    )
    print(
        "\nUnder 8RR consecutive ranks always sit on different nodes — the"
        "\nreference selector's ring walk pays inter-node latency on every"
        "\nstep, the conflict the paper identifies."
    )

    # The paper's Fig 8: p(0, x) over the 1/N deployment.
    p = placements["1/N"]
    probs = skewed_probabilities(0, p.euclidean.row(0))
    print("\nSkewed victim distribution p(0, x) (Fig 8):")
    print(render_ascii_curve(probs.tolist(), width=70, height=8))
    uniform = 1.0 / (nranks - 1)
    near = p.topology.hops_rows(p.rank_nodes)(0) <= 2
    near[0] = False
    print(
        format_table(
            ["strategy", "P(victim within 2 hops)"],
            [
                ["uniform random", float(near.sum()) * uniform],
                ["distance-skewed", float(probs[near].sum())],
            ],
        )
    )


if __name__ == "__main__":
    main()
