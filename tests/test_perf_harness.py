"""Smoke tests for the ``repro.perf`` microbenchmark harness."""

import json

from repro.perf import (
    PRE_PR_BASELINE,
    bench_event_throughput,
    bench_placement_scale,
    bench_selector_sampling,
    bench_sharded_throughput,
    bench_tree_generation,
)
from repro.perf.__main__ import main as perf_main
from repro.perf.sharded import main as sharded_main


def test_tree_generation_scenario():
    out = bench_tree_generation(tree="T3XS", max_nodes=2_000)
    assert out["nodes"] >= 2_000 or out["nodes"] > 0
    assert out["nodes_per_sec"] > 0


def test_selector_sampling_scenario():
    out = bench_selector_sampling(nranks=8, draws=500)
    assert set(out["selectors"]) == {"reference", "rand", "tofu"}
    for stats in out["selectors"].values():
        assert stats["draws"] == 500
        assert stats["draws_per_sec"] > 0


def test_event_throughput_scenario():
    out = bench_event_throughput(tree="T3XS", nranks=4, trials=1)
    assert out["events"] > 0
    assert out["nodes"] > 0
    assert out["events_per_sec"] > 0


def test_sharded_throughput_scenario():
    out = bench_sharded_throughput(
        tree="T3XS", nranks=8, shard_counts=(1, 2), trials=1
    )
    assert out["one_shard"]["events_per_sec"] > 0
    assert [row["shards"] for row in out["sharded"]] == [2]
    for row in out["sharded"]:
        # The interleaved one-shard baseline ran the identical job.
        assert row["events"] == out["one_shard"]["events"]
        assert row["nodes"] == out["one_shard"]["nodes"]
        assert row["speedup_vs_one_shard"] > 0


def test_sharded_cli_quick_writes_bench4(tmp_path):
    out_path = tmp_path / "bench4.json"
    rc = sharded_main(["--quick", "--out", str(out_path)])
    assert rc == 0
    report = json.loads(out_path.read_text())
    assert report["schema"] == "repro-perf-sharded-v2"
    assert report["headline"]["speedup_vs_one_shard"] > 0
    assert report["results"][0]["sharded"]


def test_placement_scale_scenario_stays_lazy():
    out = bench_placement_scale(nranks=256, sample_rows=4)
    assert out["dense_calls"] == 0
    assert not out["materialised"]


def test_baseline_record_complete():
    assert PRE_PR_BASELINE["events_per_sec"] > 0
    assert PRE_PR_BASELINE["commit"]


def test_cli_quick_writes_report(tmp_path, monkeypatch):
    out_path = tmp_path / "perf.json"
    rc = perf_main(["--quick", "--trials", "1", "--out", str(out_path)])
    assert rc == 0
    report = json.loads(out_path.read_text())
    assert report["schema"] == "repro-perf-v1"
    assert report["quick"] is True
    assert report["headline"]["events_per_sec"] > 0
    assert (
        report["headline"]["baseline_events_per_sec"]
        == PRE_PR_BASELINE["events_per_sec"]
    )
    assert set(report["results"]) == {
        "tree_generation",
        "selector_sampling",
        "event_throughput",
        "placement_scale",
    }
