#!/usr/bin/env python
"""Render the measured benchmark artifacts as markdown tables.

Used to refresh the measured columns of EXPERIMENTS.md:

    python benchmarks/summarize.py > /tmp/experiments_measured.md

The paired ledger runs (``prNN_ledger_pairs.json``: every parent and
change run of a PR, one row each) become one performance table, a row
per PR x workload x seed; every other artifact is one table of its own.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import sys

ARTIFACTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_artifacts")

#: The ledger's end-to-end metrics and the direction that wins a pair.
LEDGER_METRICS = {
    "wall_s": "lower",
    "sim_events_per_s": "higher",
    "request_p50_ms": "lower",
    "peak_rss_mb": "lower",
    "setup_s": "lower",
}

_LEDGER_PAIRS = re.compile(r"pr(\d+)_ledger_pairs\.json$")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.3g}"
    return str(v)


def render_curves(name: str, payload: dict, x_key: str) -> str:
    xs = payload[x_key]
    curves = payload["curves"]
    if len(xs) > 40:  # downsample long series (e.g. Fig 8's 1024 ranks)
        step = len(xs) // 20
        idx = list(range(0, len(xs), step))
        xs = [xs[i] for i in idx]
        curves = {k: [v[i] for i in idx] for k, v in curves.items()}
    lines = [f"### {name}", ""]
    header = f"| {x_key} | " + " | ".join(curves) + " |"
    sep = "|" + "---|" * (len(curves) + 1)
    lines += [header, sep]
    for i, x in enumerate(xs):
        row = [_fmt(x)] + [_fmt(curves[c][i]) for c in curves]
        lines.append("| " + " | ".join(row) + " |")
    lines.append("")
    return "\n".join(lines)


def render_rows(name: str, payload: dict) -> str:
    """List rows under ``headers`` (or ``c0, c1, ...``); dict rows (the
    tournament artifacts) under their keys, in first-seen order."""
    rows = payload["rows"]
    if rows and isinstance(rows[0], dict):
        headers = list(dict.fromkeys(key for row in rows for key in row))
        rows = [[row.get(key, "") for key in headers] for row in rows]
    else:
        headers = payload.get("headers") or [f"c{i}" for i in range(len(rows[0]))]
    lines = [f"### {name}", ""]
    lines.append("| " + " | ".join(str(h) for h in headers) + " |")
    lines.append("|" + "---|" * len(headers))
    for row in rows:
        lines.append("| " + " | ".join(_fmt(v) for v in row) + " |")
    lines.append("")
    return "\n".join(lines)


def _num(v: float) -> str:
    return f"{v / 1000:.4g}k" if abs(v) >= 10_000 else f"{v:.4g}"


def render_ledger(payloads: dict[int, dict]) -> str:
    """One table from every PR's paired runs: per PR, workload and
    seed, the parent median -> change median of each end-to-end metric
    and how many pairs the change won on it.  A file without a ``seed``
    column ran seed 0."""
    lines = ["### Performance: paired ledger runs", ""]
    lines.append(
        "| PR | workload | seed | pairs | "
        + " | ".join(f"`{m}`" for m in LEDGER_METRICS)
        + " |"
    )
    lines.append("|" + "---|" * (4 + len(LEDGER_METRICS)))
    for pr in sorted(payloads):
        headers = payloads[pr]["headers"]
        groups: dict[tuple, dict] = {}
        for row in payloads[pr]["rows"]:
            run = dict(zip(headers, row))
            key = (run["workload"], run.get("seed", 0))
            groups.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run
        for (workload, seed), pairs in groups.items():
            both = [p for p in pairs.values() if len(p) == 2]
            cells = [str(pr), f"`{workload}`", str(seed), str(len(both))]
            for metric, better in LEDGER_METRICS.items():
                parent = [p["parent"][metric] for p in both]
                change = [p["change"][metric] for p in both]
                won = sum(
                    c < a if better == "lower" else c > a
                    for a, c in zip(parent, change)
                )
                cells.append(
                    f"{_num(statistics.median(parent))} → "
                    f"{_num(statistics.median(change))} ({won}/{len(both)})"
                )
            lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    return "\n".join(lines)


def main() -> None:
    if not os.path.isdir(ARTIFACTS):
        sys.exit(f"no artifacts at {ARTIFACTS}; run pytest benchmarks/ first")
    ledger: dict[int, dict] = {}
    for fname in sorted(os.listdir(ARTIFACTS)):
        if not fname.endswith(".json"):
            continue
        with open(os.path.join(ARTIFACTS, fname)) as fh:
            payload = json.load(fh)
        name = fname[:-5]
        pairs = _LEDGER_PAIRS.match(fname)
        if pairs:
            ledger[int(pairs.group(1))] = payload
            continue
        if "rows" in payload:
            print(render_rows(name, payload))
            continue
        x_key = next(
            (k for k in ("x", "occupancy", "rounds", "alpha", "chunk", "poll", "rank") if k in payload),
            None,
        )
        if x_key is None:
            print(f"### {name}\n\n```json\n{json.dumps(payload)[:500]}\n```\n")
            continue
        if "curves" not in payload:
            # Figs 4/5/12/13 style: every other list-valued key is a curve.
            n = len(payload[x_key])
            payload = {
                x_key: payload[x_key],
                "curves": {
                    k: v
                    for k, v in payload.items()
                    if k != x_key and isinstance(v, list) and len(v) == n
                },
            }
        print(render_curves(name, payload, x_key))
    if ledger:
        print(render_ledger(ledger))


if __name__ == "__main__":
    main()
