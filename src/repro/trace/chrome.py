"""Chrome-trace (Perfetto) export of a traced run.

Emits the JSON object format of the Trace Event spec — the one both
``chrome://tracing`` and https://ui.perfetto.dev load directly:

* one thread lane per rank, with ``X`` (complete) slices for the
  active/searching phases from the activity trace;
* ``s``/``t``/``f`` flow events drawing each steal attempt as an
  arrow: thief request -> victim serve/deny -> thief reply;
* ``i`` (instant) marks for victim draws, lifeline transitions and
  the termination wave;
* a ``C`` (counter) track of the active-worker count — the paper's
  ``workers(t)`` rendered natively by the viewer.

Timestamps are converted from simulation seconds to the spec's
microseconds.  :func:`validate_chrome_trace` is the structural
validator CI runs over exported files.
"""

from __future__ import annotations

import json

from repro.core.tracing import ActivityTrace
from repro.errors import TraceError
from repro.trace.events import (
    EV_DENY,
    EV_FINISH,
    EV_FORWARD_SERVE,
    EV_LIFELINE_PUSH,
    EV_LIFELINE_QUIESCE,
    EV_LIFELINE_WAKE,
    EV_PUSH_RECV,
    EV_SERVE,
    EV_STEAL_FAIL,
    EV_STEAL_FORWARD,
    EV_STEAL_OK,
    EV_STEAL_SENT,
    EV_VICTIM_DRAW,
    EVENT_NAMES,
    EventTrace,
)

__all__ = ["chrome_trace", "write_chrome_trace", "validate_chrome_trace"]

_US = 1e6  # seconds -> microseconds

#: Instant-mark styling: etype -> (name, category).
_INSTANTS = {
    EV_VICTIM_DRAW: ("victim_draw", "steal"),
    EV_LIFELINE_QUIESCE: ("lifeline_quiesce", "lifeline"),
    EV_LIFELINE_WAKE: ("lifeline_wake", "lifeline"),
    EV_LIFELINE_PUSH: ("lifeline_push", "lifeline"),
    EV_PUSH_RECV: ("push_recv", "lifeline"),
    EV_FINISH: ("finish", "termination"),
}


def chrome_trace(
    events: EventTrace,
    activity: ActivityTrace | None = None,
    *,
    total_time: float | None = None,
    label: str = "work stealing",
) -> dict:
    """Build the Chrome-trace JSON object for one run.

    Parameters
    ----------
    events:
        Validated structured event trace.
    activity:
        Optional activity trace; adds the per-rank active/search lanes
        and the ``workers(t)`` counter track.
    total_time:
        Run duration; closes the trailing activity slice of ranks that
        were still active at termination.
    label:
        Process name shown in the viewer.
    """
    te: list[dict] = [
        {
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "name": "process_name",
            "args": {"name": label},
        }
    ]
    for rank in range(events.nranks):
        te.append(
            {
                "ph": "M",
                "pid": 0,
                "tid": rank,
                "name": "thread_name",
                "args": {"name": f"rank {rank}"},
            }
        )

    if activity is not None:
        _activity_slices(te, activity, total_time)
        _worker_counter(te, activity)

    _steal_flows(te, events)
    _instants(te, events)

    return {
        "traceEvents": te,
        "displayTimeUnit": "ms",
        "otherData": {
            "ranks": events.nranks,
            "events": len(events),
            "total_time_s": total_time,
        },
    }


def _activity_slices(
    te: list[dict], activity: ActivityTrace, total_time: float | None
) -> None:
    for rank, (times, states) in enumerate(activity.transitions):
        start: float | None = None
        for t, active in zip(times, states):
            if active:
                start = float(t)
            elif start is not None:
                te.append(
                    {
                        "ph": "X",
                        "name": "active",
                        "cat": "activity",
                        "pid": 0,
                        "tid": rank,
                        "ts": start * _US,
                        "dur": (float(t) - start) * _US,
                    }
                )
                start = None
        if start is not None and total_time is not None:
            te.append(
                {
                    "ph": "X",
                    "name": "active",
                    "cat": "activity",
                    "pid": 0,
                    "tid": rank,
                    "ts": start * _US,
                    "dur": max(0.0, total_time - start) * _US,
                }
            )


def _worker_counter(te: list[dict], activity: ActivityTrace) -> None:
    times, counts = activity.active_count_curve()
    for t, c in zip(times, counts):
        te.append(
            {
                "ph": "C",
                "name": "active workers",
                "pid": 0,
                "ts": float(t) * _US,
                "args": {"active": int(c)},
            }
        )


def _steal_flows(te: list[dict], events: EventTrace) -> None:
    """One flow (arrow chain) per steal attempt.

    The protocol allows one outstanding request per thief, so walking
    the merged stream with a per-thief open-flow table pairs every
    victim-side serve/deny and thief-side reply with its request.
    Forward relays and forward serves join the same flow — a chained
    attempt renders as one arrow threading every rank it visited.
    """
    flow_id = 0
    open_flow: dict[int, int] = {}  # thief -> flow id
    for t, rank, etype, a, b in events.merged():
        ts = t * _US
        if etype == EV_STEAL_SENT:
            flow_id += 1
            open_flow[rank] = flow_id
            te.append(
                {
                    "ph": "s",
                    "name": "steal",
                    "cat": "steal",
                    "id": flow_id,
                    "pid": 0,
                    "tid": rank,
                    "ts": ts,
                }
            )
        elif etype in (EV_SERVE, EV_DENY):
            fid = open_flow.get(a)
            if fid is not None:
                te.append(
                    {
                        "ph": "t",
                        "name": "steal",
                        "cat": "steal",
                        "id": fid,
                        "pid": 0,
                        "tid": rank,
                        "ts": ts,
                        "args": {
                            "thief": a,
                            **({"nodes": b} if etype == EV_SERVE else {}),
                        },
                    }
                )
        elif etype == EV_STEAL_FORWARD:
            # Relay at `rank` toward `a` of the request thief `b` opened.
            fid = open_flow.get(b)
            if fid is not None:
                te.append(
                    {
                        "ph": "t",
                        "name": "steal",
                        "cat": "steal",
                        "id": fid,
                        "pid": 0,
                        "tid": rank,
                        "ts": ts,
                        "args": {"thief": b, "forwarded_to": a},
                    }
                )
        elif etype == EV_FORWARD_SERVE:
            # Serve of a forwarded request from thief `a`.
            fid = open_flow.get(a)
            if fid is not None:
                te.append(
                    {
                        "ph": "t",
                        "name": "steal",
                        "cat": "steal",
                        "id": fid,
                        "pid": 0,
                        "tid": rank,
                        "ts": ts,
                        "args": {"thief": a, "nodes": b, "forwarded": True},
                    }
                )
        elif etype in (EV_STEAL_OK, EV_STEAL_FAIL):
            fid = open_flow.pop(rank, None)
            if fid is not None:
                te.append(
                    {
                        "ph": "f",
                        "bp": "e",
                        "name": "steal",
                        "cat": "steal",
                        "id": fid,
                        "pid": 0,
                        "tid": rank,
                        "ts": ts,
                        "args": {
                            "victim": a,
                            "outcome": EVENT_NAMES[etype],
                            **({"nodes": b} if etype == EV_STEAL_OK else {}),
                        },
                    }
                )


def _instants(te: list[dict], events: EventTrace) -> None:
    for rank, evs in enumerate(events.ranks):
        for t, etype, a, b in evs:
            style = _INSTANTS.get(etype)
            if style is None:
                continue
            name, cat = style
            te.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": name,
                    "cat": cat,
                    "pid": 0,
                    "tid": rank,
                    "ts": t * _US,
                    "args": {"a": a, "b": b},
                }
            )


def write_chrome_trace(path, data: dict) -> None:
    """Write an exported trace object as JSON."""
    with open(path, "w") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")


# ----------------------------------------------------------------------
# Structural validation (the CI trace-smoke contract)
# ----------------------------------------------------------------------

_KNOWN_PH = {"M", "X", "i", "s", "t", "f", "C", "B", "E"}


def validate_chrome_trace(data: dict) -> int:
    """Structurally validate a Chrome-trace object; returns event count.

    Checks the invariants Perfetto's importer relies on — raises
    :class:`~repro.errors.TraceError` on the first violation:

    * top level is an object with a ``traceEvents`` list;
    * every event is an object with a known ``ph`` and a ``name``;
    * non-metadata events carry a finite numeric ``ts >= 0``;
    * ``X`` slices carry ``dur >= 0``; flow events carry an ``id``;
    * ``pid``/``tid`` are integers where present.
    """
    if not isinstance(data, dict):
        raise TraceError(f"trace must be a JSON object, got {type(data).__name__}")
    te = data.get("traceEvents")
    if not isinstance(te, list):
        raise TraceError("trace is missing the 'traceEvents' list")
    for i, ev in enumerate(te):
        if not isinstance(ev, dict):
            raise TraceError(f"traceEvents[{i}] is not an object")
        ph = ev.get("ph")
        if ph not in _KNOWN_PH:
            raise TraceError(f"traceEvents[{i}]: unknown phase {ph!r}")
        if not isinstance(ev.get("name"), str):
            raise TraceError(f"traceEvents[{i}]: missing event name")
        for key in ("pid", "tid"):
            if key in ev and not isinstance(ev[key], int):
                raise TraceError(
                    f"traceEvents[{i}]: {key} must be an int, "
                    f"got {ev[key]!r}"
                )
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts != ts or ts < 0:
            raise TraceError(f"traceEvents[{i}]: bad timestamp {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur != dur or dur < 0:
                raise TraceError(f"traceEvents[{i}]: bad duration {dur!r}")
        if ph in ("s", "t", "f") and "id" not in ev:
            raise TraceError(f"traceEvents[{i}]: flow event without id")
    return len(te)
