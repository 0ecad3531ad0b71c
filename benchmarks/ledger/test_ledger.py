"""Toy-size checks of the ledger itself (not part of tier-1).

Run as ``python -m pytest benchmarks/ledger/test_ledger.py -q``.
Every workload and every rung executes at toy size (T3XS, <= 16 ranks
except where a rung needs more to exist); what is checked is the
benchmark's contract, not the program's speed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_ledger(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), names
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_exactly_the_end_to_end_metrics(workload):
    res = result_of(run_ledger(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", "0", "--size", "toy",
    ))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in res["metrics"].items()} == wanted
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_exactly_the_per_layer_metrics(workload):
    span_file = HERE / "_out" / f"trace-{workload}.json"
    span_file.unlink(missing_ok=True)
    res = result_of(run_ledger(
        "--workload", workload, "--seed", "0", "--seconds", "1",
        "--trace", "1", "--size", "toy",
    ))
    assert res["correct"] is True
    metrics = res["metrics"]
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in metrics.items()} == wanted
    shares = [m["value"] for n, m in metrics.items() if n.startswith("prof.")]
    assert len(shares) == 13 and abs(sum(shares) - 1.0) <= 0.01
    assert metrics["trace.span_coverage"]["value"] >= 0.95
    # Seed 0 at toy size is pinned in expected.json.
    assert metrics["sim.digest_match"]["value"] == 1
    spans = json.loads(span_file.read_text(encoding="utf-8"))["traceEvents"]
    assert {"pass", "job"} <= {e["name"] for e in spans}


def test_a_broken_invariant_is_a_failed_operation():
    from checks import Checks, check_results
    from repro import T3XS, run_uts

    result = run_uts(tree=T3XS, nranks=8)
    good = Checks()
    assert check_results(good, [result], "T3XS") == [result]
    assert (good.attempted, good.failed) == (2, 0)
    bad = Checks()
    # The wrong pinned tree size, and a slot that is not a result.
    check_results(bad, [result, ValueError("boom")], "T3S")
    assert (bad.attempted, bad.failed) == (4, 3)
    assert any("sequential_count" in m for m in bad.messages)


def test_digest_is_skipped_off_seed_zero_and_reported_not_failed():
    from checks import digest_match

    assert digest_match("toy", "scale-4096", 1, "anything") is None
    assert digest_match("toy", "scale-4096", 0, "not the pinned one") == 0


def test_compare_verdicts():
    from compare import verdict

    def s(lo, mid, hi):
        return {"min": lo, "median": mid, "max": hi}

    base = s(9.9, 10.0, 10.1)
    assert verdict(base, s(10.3, 10.4, 10.5), "lower", 0.10)[0] == "within-bound"
    assert verdict(base, s(11.9, 12.0, 12.1), "lower", 0.10)[0] == "worse"
    assert verdict(base, s(7.9, 8.0, 8.1), "lower", 0.10)[0] == "better"
    assert verdict(base, s(11.9, 12.0, 12.1), "higher", 0.10)[0] == "better"
    # Spread wider than the bound and overlapping runs: cannot tell.
    assert verdict(base, s(9.0, 10.2, 12.0), "lower", 0.10)[0] == "unresolved"
    # Wide spread, but every run of B is slower than every run of A.
    assert verdict(base, s(12.0, 13.0, 15.0), "lower", 0.10)[0] == "worse"


def _meter(samples):
    """A SpeedMeter holding ``(wall, wall cost, cpu, cpu cost, sleeps)`` samples."""
    from speed import SpeedMeter

    meter = SpeedMeter()
    for wall, wall_cost, cpu, cpu_cost, sleeps in samples:
        meter._wall.append(wall)
        meter._wall_cost.append(wall_cost)
        meter._cpu.append(cpu)
        meter._cpu_cost.append(cpu_cost)
        meter._sleeps.append(sleeps)
    return meter


def test_reference_seconds_of_an_undisturbed_thread_are_its_wall_seconds():
    from speed import NOMINAL_S as K

    # A sample every 50 ms; the CPU clock keeps pace with the wall clock.
    meter = _meter([(i * 0.05, K, i * 0.05, K, 0) for i in range(41)])
    assert meter.reference(0.01, 0.04) == pytest.approx(0.03)
    # The kernel's own time inside an interval is not the interval's.
    assert meter.reference(0.0, 1.0) == pytest.approx(1.0 - 20 * K)
    assert meter.reference(0.01, 0.04, minus=0.01) == pytest.approx(0.02)
    # Before the first sample and after the last, the nearest gap stands in.
    assert meter.reference(-1.0, -0.5) == pytest.approx(0.5)
    assert meter.reference(5.0, 5.5) == pytest.approx(0.5)


def test_reference_seconds_scale_with_the_kernel_cpu_cost():
    from speed import NOMINAL_S as K

    # The core runs at half speed: the kernel costs twice as much CPU.
    meter = _meter([(i * 0.05, 2 * K, i * 0.05, 2 * K, 0) for i in range(41)])
    assert meter.reference(0.01, 0.04) == pytest.approx(0.015)


def test_time_taken_from_a_thread_that_never_waited_does_not_count():
    from speed import NOMINAL_S as K

    # Between samples the thread got the CPU for half of the wall time
    # (preempted, or the core stolen), and never slept.
    half = _meter([(i * 0.05, K, i * (0.025 + K / 2), K, 0) for i in range(41)])
    assert half.reference(0.0, 1.0) == pytest.approx((1.0 - 20 * K) / 2)
    # The same clocks, but it went to sleep in every gap (waiting for
    # pool workers): the wall time is what the caller waited.
    waited = _meter([(i * 0.05, K, i * (0.025 + K / 2), K, i) for i in range(41)])
    assert waited.reference(0.0, 1.0) == pytest.approx(1.0 - 20 * K)


def test_without_the_program_the_benchmark_exits_non_zero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("_out", "__pycache__", ".pytest_cache"),
    )
    done = run_ledger(
        "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "benchmarks" / "ledger" / "run.py",
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
