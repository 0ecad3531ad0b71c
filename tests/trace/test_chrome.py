"""Chrome-trace exporter and structural-validator tests."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.tracing import ActivityTrace
from repro.errors import TraceError
from repro.sim.cluster import Cluster
from repro.trace.chrome import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.trace.events import (
    EV_DENY,
    EV_SERVE,
    EV_STEAL_FAIL,
    EV_STEAL_OK,
    EV_STEAL_SENT,
    EventTrace,
)
from repro.uts.params import T3XS
from repro.ws.results import RunResult


def _run_trace():
    from repro.core.config import WorkStealingConfig

    cfg = WorkStealingConfig(
        tree=T3XS, nranks=8, selector="rand", trace=True, event_trace=True
    )
    return RunResult.from_outcome(Cluster(cfg).run())


class TestExport:
    def test_real_run_export_validates(self):
        result = _run_trace()
        data = chrome_trace(
            result.events, result.trace, total_time=result.total_time
        )
        n = validate_chrome_trace(data)
        assert n == len(data["traceEvents"]) > result.nranks
        assert data["otherData"]["ranks"] == 8

    def test_export_is_json_serializable(self, tmp_path):
        result = _run_trace()
        data = chrome_trace(result.events, result.trace,
                            total_time=result.total_time)
        out = tmp_path / "run.trace.json"
        write_chrome_trace(out, data)
        reread = json.loads(out.read_text())
        assert validate_chrome_trace(reread) == len(data["traceEvents"])

    def test_flow_arrows_pair_request_and_reply(self):
        events = EventTrace(
            [
                [(1e-3, EV_STEAL_SENT, 1, 0), (3e-3, EV_STEAL_OK, 1, 5)],
                [(2e-3, EV_SERVE, 0, 5)],
            ]
        )
        te = chrome_trace(events)["traceEvents"]
        flows = [ev for ev in te if ev["ph"] in ("s", "t", "f")]
        assert [ev["ph"] for ev in flows] == ["s", "t", "f"]
        assert len({ev["id"] for ev in flows}) == 1
        # Timestamps converted to microseconds.
        assert flows[0]["ts"] == pytest.approx(1e3)

    def test_unanswered_request_has_no_finish(self):
        events = EventTrace(
            [
                [(0.0, EV_STEAL_SENT, 1, 0), (1.0, EV_STEAL_FAIL, 1, 0),
                 (2.0, EV_STEAL_SENT, 1, 0)],
                [(0.5, EV_DENY, 0, 0)],
            ]
        )
        te = chrome_trace(events)["traceEvents"]
        assert sum(1 for ev in te if ev["ph"] == "s") == 2
        assert sum(1 for ev in te if ev["ph"] == "f") == 1

    def test_activity_lanes_closed_at_total_time(self):
        events = EventTrace([[], []])
        activity = ActivityTrace(
            [
                (np.array([0.0, 2.0]), np.array([True, False])),
                (np.array([1.0]), np.array([True])),  # still active at end
            ]
        )
        te = chrome_trace(events, activity, total_time=4.0)["traceEvents"]
        slices = [ev for ev in te if ev["ph"] == "X"]
        assert len(slices) == 2
        open_slice = next(ev for ev in slices if ev["tid"] == 1)
        assert open_slice["dur"] == pytest.approx(3.0 * 1e6)


class TestValidator:
    def _valid(self):
        return {"traceEvents": [{"ph": "M", "pid": 0, "tid": 0,
                                 "name": "process_name", "args": {}}]}

    def test_accepts_minimal(self):
        assert validate_chrome_trace(self._valid()) == 1

    def test_rejects_non_object(self):
        with pytest.raises(TraceError):
            validate_chrome_trace([])

    def test_rejects_missing_trace_events(self):
        with pytest.raises(TraceError, match="traceEvents"):
            validate_chrome_trace({"otherData": {}})

    def test_rejects_unknown_phase(self):
        data = self._valid()
        data["traceEvents"].append({"ph": "Z", "name": "x", "ts": 0})
        with pytest.raises(TraceError, match="phase"):
            validate_chrome_trace(data)

    def test_rejects_missing_name(self):
        data = self._valid()
        data["traceEvents"].append({"ph": "i", "ts": 0})
        with pytest.raises(TraceError, match="name"):
            validate_chrome_trace(data)

    def test_rejects_bad_timestamp(self):
        for ts in (None, -1.0, float("nan"), "0"):
            data = self._valid()
            data["traceEvents"].append({"ph": "i", "name": "x", "ts": ts})
            with pytest.raises(TraceError, match="timestamp"):
                validate_chrome_trace(data)

    def test_rejects_negative_duration(self):
        data = self._valid()
        data["traceEvents"].append(
            {"ph": "X", "name": "x", "ts": 0, "dur": -5}
        )
        with pytest.raises(TraceError, match="duration"):
            validate_chrome_trace(data)

    def test_rejects_flow_without_id(self):
        data = self._valid()
        data["traceEvents"].append({"ph": "s", "name": "x", "ts": 0})
        with pytest.raises(TraceError, match="id"):
            validate_chrome_trace(data)

    def test_rejects_non_int_pid(self):
        data = self._valid()
        data["traceEvents"].append(
            {"ph": "i", "name": "x", "ts": 0, "pid": "zero"}
        )
        with pytest.raises(TraceError, match="pid"):
            validate_chrome_trace(data)
