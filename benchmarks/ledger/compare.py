#!/usr/bin/env python3
"""Compare two ledger files: ``compare.py A.json B.json`` (A is the base).

Per workload and end-to-end metric, prints both medians with min/max
and B's change against its base A, and one verdict from
BENCHMARK.json's bounds:

``better`` / ``worse``
    B's median is beyond the bound in that direction.
``within-bound``
    B's median is within the bound of A's.
``unresolved``
    Either side's own min-max spread is wider than the bound, so the
    runs cannot tell — unless every run of one side reads better than
    every run of the other, which still gives better/worse.

Exit status is non-zero on any ``worse``, on a higher failed-operations
share, or when a ``sim.*`` count differs (a simulator-only change must
leave simulated statistics identical; a meant physics change re-pins
``expected.json`` first).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, signed change of B against A; positive = worse)``."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["median"] - a["median"]) / a["median"]
    if better == "lower":
        b_wins, a_wins = b["max"] < a["min"], a["max"] < b["min"]
    else:
        b_wins, a_wins = b["min"] > a["max"], a["min"] > b["max"]
    noisy = max(
        (side["max"] - side["min"]) / side["median"] for side in (a, b)
    ) > bound
    if noisy and not (a_wins or b_wins):
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "within-bound", change


def compare(base: dict, other: dict, spec: dict) -> int:
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    status = 0
    for name in (w["name"] for w in spec["workloads"]):
        a, b = base["workloads"][name], other["workloads"][name]
        if (a["status"], b["status"]) != ("ok", "ok"):
            print(f"== {name}: not compared (A {a['status']}, B {b['status']})")
            continue
        print(f"== {name}")
        for metric, m in metrics.items():
            sa, sb = a["end_to_end"][metric], b["end_to_end"][metric]
            v, change = verdict(sa, sb, m["better"], m["bound"])
            if v == "worse":
                status = 1
            print(
                f"   {metric:18s} A {sa['median']:.6g} [{sa['min']:.6g}, {sa['max']:.6g}]"
                f"  B {sb['median']:.6g} [{sb['min']:.6g}, {sb['max']:.6g}] {sa['unit']}"
                f"  {'worse' if change > 0 else 'better'} by {abs(change):.1%} of A"
                f" (bound {m['bound']:.0%}): {v}"
            )
        fa, fb = a["failed_ops_share"], b["failed_ops_share"]
        if fb > fa:
            status = 1
        print(f"   failed_ops_share   A {fa:.4g} ({a['failed']}/{a['attempted']})"
              f"  B {fb:.4g} ({b['failed']}/{b['attempted']})"
              f": {'HIGHER' if fb > fa else 'not higher'}")
        sim_a = {k: a["sim"][k] for k in ("events", "failed_steals", "nodes")}
        sim_b = {k: b["sim"][k] for k in ("events", "failed_steals", "nodes")}
        if (base["seed"], base["size"]) != (other["seed"], other["size"]):
            print("   sim.* counts: seeds or sizes differ, not compared")
        elif sim_a != sim_b:
            status = 1
            print(f"   sim.* counts DIFFER: A {sim_a}  B {sim_b}")
        else:
            print(f"   sim.* counts identical: {sim_a}")
    return status


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base, other = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for label, ledger in (("A", base), ("B", other)):
        m = ledger["machine"]
        print(f"{label}: commit {m['commit']} nproc {m['nproc']} load "
              f"{m['loadavg_1m_start']:.2f}->{m['loadavg_1m_end']:.2f} "
              f"slowdown {m['slowdown_vs_reference']:.2f} python {m['python']} "
              f"numpy {m['numpy']} seed {ledger['seed']}")
    return compare(base, other, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
