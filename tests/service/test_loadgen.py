"""Smoke tests for the service load generator."""

from __future__ import annotations

import json

from repro.service import loadgen


class TestLoadgen:
    def test_short_run_reports_throughput_and_dedup(self, tmp_path):
        results = loadgen.run_load(
            duration=1.5,
            clients=2,
            universe=4,
            workers=1,
            store_dir=str(tmp_path),
            seed=7,
        )
        assert results["sweeps"] > 0
        assert results["sweeps_per_sec"] > 0
        assert results["failed"] == 0
        # The dedup guarantee, measured: at most one execution per
        # distinct config, no matter how many clients asked.
        assert results["executed"] <= results["distinct_configs"]
        assert results["submitted"] == results["sweeps"]
        assert 0.0 <= results["hit_rate"] <= 1.0
        assert results["latency_p99_ms"] >= results["latency_p50_ms"] >= 0
        # Cold/warm split: every sweep lands in exactly one population,
        # and cold requests (real executions) dominate warm ones (store
        # hits) in latency.
        cold, warm = results["latency_cold"], results["latency_warm"]
        assert cold["count"] + warm["count"] == results["sweeps"]
        assert cold["count"] > 0  # a fresh store must execute something
        for dist in (cold, warm):
            assert dist["max_ms"] >= dist["p99_ms"] >= dist["p50_ms"] >= 0
        if warm["count"]:
            assert cold["p50_ms"] >= warm["p50_ms"]

    def test_cli_emits_bench_json_and_gates(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = loadgen.main(
            [
                "--duration", "1.0",
                "--clients", "2",
                "--universe", "3",
                "--workers", "1",
                "--store", str(tmp_path / "store"),
                "--out", str(out),
                "--require-throughput", "1",
            ]
        )
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "repro-service-load-v1"
        for key in ("sweeps_per_sec", "latency_p99_ms", "hit_rate", "executed"):
            assert key in report["results"]

    def test_unmeetable_gate_fails(self, tmp_path):
        rc = loadgen.main(
            [
                "--duration", "0.5",
                "--clients", "1",
                "--universe", "2",
                "--workers", "1",
                "--store", str(tmp_path / "store"),
                "--require-throughput", "1e12",
            ]
        )
        assert rc == 1
