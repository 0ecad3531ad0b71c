"""The traced pass: spans from the benchmark's own code, and a
``cProfile`` run folded into the repo's layers.

Spans are recorded around the calls into the program (``pass`` -> one
``job`` per config -> ``score`` / ``submit`` / ``results`` siblings),
kept in memory and written once as Chrome-trace JSON.  Spans *inside*
the program are a later change.

Profiled shares are ``tottime`` (self time) by source file.  cProfile
charges every Python-level call and nothing inside C code, so
call-heavy layers read high and numpy-heavy ones low: the shares say
where the *profiled* pass spent its time, and the end-to-end metrics —
measured with profiling off — say what a change bought.
"""

from __future__ import annotations

import json
import os
import pstats
from pathlib import Path

__all__ = ["BUCKETS", "fold_profile", "span_coverage", "write_chrome_trace"]

#: Fixed bucket order; every profiled function lands in exactly one.
BUCKETS = (
    "uts", "net", "core", "select", "protocol", "sim.core", "sim.shard",
    "trace", "exec", "service", "heapq-builtins", "numpy", "other",
)

_PACKAGE_BUCKET = {
    "uts": "uts",
    "net": "net",
    "core": "core",
    "select": "select",
    "protocol": "protocol",
    "lifeline": "protocol",
    "trace": "trace",
    "exec": "exec",
    "ws": "exec",
    "tournament": "exec",
    "bench": "exec",
    "service": "service",
}
_SHARD_FILES = ("shard.py", "shardcodec.py")
#: Built-ins that block rather than compute.  cProfile's clock is wall
#: time, so the service parent waiting on its workers would otherwise
#: read as ~90% "builtins"; shares are of *busy* self time.
_WAITS = ("select.epoll", "select.select", "time.sleep", "_thread.lock", "posix.waitpid")


def _bucket(filename: str, funcname: str) -> str | None:
    if filename == "~":  # built-in or C method: no source file
        if any(wait in funcname for wait in _WAITS):
            return None
        return "numpy" if "numpy" in funcname else "heapq-builtins"
    parts = filename.replace(os.sep, "/").split("/")
    if "repro" in parts[:-1]:
        package = parts[parts.index("repro") + 1]
        if package == "sim":
            return "sim.shard" if parts[-1] in _SHARD_FILES else "sim.core"
        return _PACKAGE_BUCKET.get(package, "other")
    return "numpy" if "numpy" in parts else "other"


def fold_profile(profile) -> dict[str, float]:
    """Busy self-time share per bucket of a finished ``cProfile.Profile``."""
    totals = dict.fromkeys(BUCKETS, 0.0)
    for (filename, _line, funcname), row in pstats.Stats(profile).stats.items():
        bucket = _bucket(filename, funcname)
        if bucket is not None:
            totals[bucket] += row[2]  # tottime
    whole = sum(totals.values())
    return {name: (t / whole if whole else 0.0) for name, t in totals.items()}


def span_coverage(record: dict) -> float:
    """Share of the ``pass`` span covered by the union of its children."""
    inner = sorted(
        (s["t0"], s["t1"]) for s in record["jobs"] + record["spans"]
    )
    covered = 0.0
    edge = record["t0"]
    for t0, t1 in inner:
        t0 = max(t0, edge)
        t1 = min(t1, record["t1"])
        if t1 > t0:
            covered += t1 - t0
            edge = t1
    return covered / (record["t1"] - record["t0"])


def write_chrome_trace(path: Path, workload: str, record: dict) -> None:
    """One ``pass`` slice, its ``job`` slices (lane 1, overlapping jobs
    of the service workers spill to further lanes) and the sibling
    slices (lane 0), in microseconds from the start of the pass."""
    origin = record["t0"]

    def slice_(name: str, t0: float, t1: float, tid: int, **args) -> dict:
        return {
            "name": name, "cat": workload, "ph": "X", "pid": 1, "tid": tid,
            "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6,
            "args": {"parent": None if name == "pass" else "pass", **args},
        }

    events = [slice_("pass", record["t0"], record["t1"], 0)]
    lanes: list[float] = []  # end time of the last job in each job lane
    for job in sorted(record["jobs"], key=lambda j: j["t0"]):
        for lane, busy_until in enumerate(lanes):
            if busy_until <= job["t0"]:
                break
        else:
            lane = len(lanes)
            lanes.append(0.0)
        lanes[lane] = job["t1"]
        events.append(
            slice_("job", job["t0"], job["t1"], lane + 1,
                   id=job["id"], label=job["label"])
        )
    events.extend(slice_(s["name"], s["t0"], s["t1"], 0) for s in record["spans"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
        encoding="utf-8",
    )
