"""Tests for the benchmark harness (cache, sweeps, reporting)."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os

import pytest

from repro.bench import experiments
from repro.bench.experiments import (
    CALIBRATION,
    clear_cache,
    configure,
    experiment_config,
    grid,
    run_configs,
    run_grid,
)
from repro.bench.report import (
    format_series,
    format_table,
    render_ascii_curve,
    save_artifact,
)
from repro.core.config import WorkStealingConfig
from repro.protocol.variants import protocol_overrides
from repro.uts.params import T3XS


def _run(cfg):
    return run_configs([cfg])[0]


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
        a = _run(experiment_config(T3XS, 4))
        b = _run(experiment_config(T3XS, 4))
        assert a is b

    def test_different_configs_rerun(self):
        a = _run(experiment_config(T3XS, 4))
        b = _run(experiment_config(T3XS, 4, selector="rand"))
        assert a is not b

    def test_untraced_does_not_subsume_traced(self):
        untraced = _run(experiment_config(T3XS, 4))
        traced = _run(experiment_config(T3XS, 4, trace=True))
        assert traced is not untraced
        assert traced.trace is not None

    def test_clear(self):
        _run(experiment_config(T3XS, 4))
        assert clear_cache() >= 1
        assert clear_cache() == 0


class TestGrid:
    def test_keys_and_reuse(self):
        clear_cache()
        res = run_grid(T3XS, (4, 8), allocation=("1/N", "4G"))
        assert list(res) == [(4, "1/N"), (4, "4G"), (8, "1/N"), (8, "4G")]
        again = run_grid(T3XS, (4, 8), allocation=("1/N", "4G"))
        assert all(res[k] is again[k] for k in res)

    def test_results_have_correct_shape(self):
        res = run_grid(T3XS, 4, selector="rand", steal_policy="half")
        r = res[()]
        assert r.selector == "rand"
        assert r.steal_policy == "half"
        assert r.nranks == 4

    def test_axes_iterate_in_keyword_order_first_outermost(self):
        configs = grid(T3XS, (4, 8), seed=(0, 1), selector=("rand", "tofu"))
        assert list(configs) == list(
            itertools.product((4, 8), (0, 1), ("rand", "tofu"))
        )
        for (nranks, seed, selector), cfg in configs.items():
            assert (cfg.nranks, cfg.seed, cfg.selector.name) == (nranks, seed, selector)
        swapped = grid(T3XS, 4, selector=("rand", "tofu"), seed=(0, 1))
        assert list(swapped) == [("rand", 0), ("rand", 1), ("tofu", 0), ("tofu", 1)]

    def test_fixed_values_and_calibration(self):
        (cfg,) = grid(T3XS, 4, seed=3, poll_interval=7).values()
        assert cfg.fingerprint() == experiment_config(
            T3XS, 4, seed=3, poll_interval=7
        ).fingerprint()
        (raw,) = grid(T3XS, 4, calibrated=False).values()
        plain = WorkStealingConfig(tree=T3XS, nranks=4)
        assert raw.fingerprint() == plain.fingerprint()

    @pytest.mark.parametrize(
        "spec", ["steal", "forward", "forward[3]+regions[8]", "lifelines[2:ring]"]
    )
    def test_protocol_expands_through_protocol_overrides(self, spec):
        (cfg,) = grid(T3XS, 8, protocol=(spec,)).values()
        expected = experiment_config(T3XS, 8, **protocol_overrides(spec))
        assert cfg.fingerprint() == expected.fingerprint()
        (fixed,) = grid(T3XS, 8, protocol=spec).values()
        assert fixed.fingerprint() == expected.fingerprint()

    def test_a_grid_is_one_run_configs_call(self, monkeypatch):
        clear_cache()
        batches = []
        real = experiments.run_configs

        def counting(configs):
            configs = list(configs)
            batches.append(configs)
            return real(configs)

        monkeypatch.setattr(experiments, "run_configs", counting)
        res = run_grid(T3XS, (4, 8), selector=("rand", "tofu"), seed=(0, 1))
        assert [len(batch) for batch in batches] == [8]
        assert [r.label for r in res.values()] == [
            c.label() for c in batches[0]
        ]

    def test_store_backed_seed_grid_is_served_warm(self, tmp_path, monkeypatch):
        """2 seeds x 2 root seeds, cold on two workers, then warm and
        serial from a fresh store object on the same root: the warm run
        simulates nothing and returns the cold run's bytes."""
        trees = tuple(dataclasses.replace(T3XS, root_seed=r) for r in (7, 8))
        try:
            configure(jobs=2, cache=tmp_path)
            clear_cache()
            cold = run_grid(trees, 8, selector="rand", seed=(0, 1))
            configure(jobs=1, cache=tmp_path)
            clear_cache()

            def refuse(payload):
                raise AssertionError("the warm run simulated a config")

            monkeypatch.setattr("repro.exec.pool._execute", refuse)
            warm = run_grid(trees, 8, selector="rand", seed=(0, 1))
        finally:
            configure(jobs=1, cache=None)
            clear_cache()
        assert list(warm) == list(cold) == list(itertools.product(trees, (0, 1)))
        assert [r.to_json() for r in warm.values()] == [
            r.to_json() for r in cold.values()
        ]
        assert len({r.to_json() for r in cold.values()}) == 4


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
