"""CLI: run one traced experiment and export its Chrome trace.

Usage::

    python -m repro.trace --config fig02
    python -m repro.trace --config fig09 --ranks 64 --out fig09.trace.json
    python -m repro.trace --config smoke --check     # CI smoke + validation
    python -m repro.trace --list

Open the emitted JSON at https://ui.perfetto.dev (or
``chrome://tracing``): one lane per rank, ``active`` slices for the
busy phases, arrows for every steal attempt, and an ``active
workers`` counter track.  A text summary of the steal statistics is
printed to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ReproError
from repro.sim.cluster import Cluster
from repro.trace.analysis import TraceAnalysis
from repro.trace.chrome import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.trace.presets import TRACE_PRESETS, preset_config
from repro.ws.results import RunResult


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Run a traced experiment and emit a Perfetto JSON trace.",
    )
    parser.add_argument(
        "--config",
        metavar="PRESET",
        help="traced experiment preset (see --list)",
    )
    parser.add_argument("--list", action="store_true", help="list presets")
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="output JSON path (default: <preset>.trace.json)",
    )
    parser.add_argument(
        "--ranks", type=int, default=None, help="override the preset's nranks"
    )
    parser.add_argument(
        "--tree", default=None, help="override the preset's tree (e.g. T3S)"
    )
    parser.add_argument(
        "--selector", default=None, help="override the victim selector"
    )
    parser.add_argument(
        "--steal-policy", default=None, help="override the steal policy"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the run seed"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-read the emitted JSON and validate it structurally",
    )
    args = parser.parse_args(argv)

    if args.list or not args.config:
        for key, (_kwargs, desc) in TRACE_PRESETS.items():
            print(f"  {key:10s} {desc}")
        return 0

    overrides = {}
    if args.ranks is not None:
        overrides["nranks"] = args.ranks
    if args.tree is not None:
        overrides["tree"] = args.tree
    if args.selector is not None:
        overrides["selector"] = args.selector
    if args.steal_policy is not None:
        overrides["steal_policy"] = args.steal_policy
    if args.seed is not None:
        overrides["seed"] = args.seed

    try:
        cfg = preset_config(args.config, **overrides)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"running {cfg.label()} ...", file=sys.stderr)
    outcome = Cluster(cfg).run()
    result = RunResult.from_outcome(outcome)
    events = result.events
    assert events is not None  # event_trace is forced on by the preset

    analysis = TraceAnalysis(events, placement=outcome.placement)
    data = chrome_trace(
        events, result.trace, total_time=result.total_time, label=cfg.label()
    )
    out = args.out or f"{args.config}.trace.json"
    write_chrome_trace(out, data)

    print(analysis.summary())
    print(f"[trace] wrote {out} ({len(data['traceEvents'])} trace events)", file=sys.stderr)
    print("[trace] open it at https://ui.perfetto.dev", file=sys.stderr)

    if args.check:
        with open(out) as fh:
            n = validate_chrome_trace(json.load(fh))
        print(f"[trace] validation ok: {n} events", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
