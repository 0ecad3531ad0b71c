"""Tests for the benchmark harness (cache, sweeps, reporting)."""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.bench.experiments import (
    CALIBRATION,
    cached_run,
    clear_cache,
    experiment_config,
)
from repro.bench.report import (
    format_series,
    format_table,
    render_ascii_curve,
    save_artifact,
)
from repro.bench.sweep import sweep
from repro.uts.params import T3XS


class TestExperimentConfig:
    def test_calibration_applied(self):
        cfg = experiment_config(T3XS, 8, selector="tofu")
        assert cfg.node_time == CALIBRATION.node_time
        assert cfg.poll_interval == CALIBRATION.poll_interval
        assert cfg.chunk_size == CALIBRATION.chunk_size
        assert cfg.latency_model.per_hop == CALIBRATION.per_hop
        assert cfg.selector.name == "tofu"

    def test_tree_by_name(self):
        cfg = experiment_config("T3XS", 8)
        assert cfg.tree.name == "T3XS"

    def test_overrides_win(self):
        cfg = experiment_config(T3XS, 8, poll_interval=7, compute_rounds=4)
        assert cfg.poll_interval == 7
        assert cfg.compute_rounds == 4


class TestCache:
    def setup_method(self):
        clear_cache()

    def test_identical_configs_run_once(self):
        a = cached_run(experiment_config(T3XS, 4))
        b = cached_run(experiment_config(T3XS, 4))
        assert a is b

    def test_different_configs_rerun(self):
        a = cached_run(experiment_config(T3XS, 4))
        b = cached_run(experiment_config(T3XS, 4, selector="rand"))
        assert a is not b

    def test_untraced_does_not_subsume_traced(self):
        untraced = cached_run(experiment_config(T3XS, 4))
        traced = cached_run(experiment_config(T3XS, 4, trace=True))
        assert traced is not untraced
        assert traced.trace is not None

    def test_clear(self):
        cached_run(experiment_config(T3XS, 4))
        assert clear_cache() >= 1
        assert clear_cache() == 0


class TestSweep:
    def test_keys_and_reuse(self):
        clear_cache()
        res = sweep(T3XS, ladder=(4, 8), allocations=("1/N", "4G"))
        assert set(res) == {(4, "1/N"), (4, "4G"), (8, "1/N"), (8, "4G")}
        again = sweep(T3XS, ladder=(4, 8), allocations=("1/N", "4G"))
        assert all(res[k] is again[k] for k in res)

    def test_results_have_correct_shape(self):
        res = sweep(T3XS, ladder=(4,), selector="rand", steal_policy="half")
        r = res[(4, "1/N")]
        assert r.selector == "rand"
        assert r.steal_policy == "half"
        assert r.nranks == 4


class TestReport:
    def test_format_table(self):
        out = format_table(["a", "b"], [[1, 2.5], [3, 4.0]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "b" in lines[0]

    def test_format_table_bad_row(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_series(self):
        out = format_series(
            "Fig X", "nranks", [1, 2], {"ref": [1.0, 2.0], "tofu": [1.5, None]}
        )
        assert out.startswith("== Fig X ==")
        assert "nan" in out  # None rendered as NaN

    def test_ascii_curve(self):
        out = render_ascii_curve([0.0, 0.5, 1.0, float("nan")], width=10, height=4)
        assert "min=0" in out

    def test_ascii_curve_empty(self):
        assert render_ascii_curve([math.nan]) == "(no data)"

    def test_save_artifact(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path))
        path = save_artifact("unit", {"x": [1, 2], "y": [0.5, 1.5]})
        with open(path) as fh:
            data = json.load(fh)
        assert data["x"] == [1, 2]
        assert os.path.dirname(path) == str(tmp_path)
