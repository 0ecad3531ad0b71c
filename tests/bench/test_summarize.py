"""Tests for the artifact summariser used to refresh EXPERIMENTS.md."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SCRIPT = os.path.join(REPO, "benchmarks", "summarize.py")


def test_renders_artifacts(tmp_path, monkeypatch):
    # Build a private artifact dir with each payload flavour.
    artifacts = tmp_path / "_artifacts"
    artifacts.mkdir()
    (artifacts / "figX.json").write_text(
        json.dumps({"x": [1, 2], "curves": {"ref": [1.0, 2.0], "opt": [2.0, 4.0]}})
    )
    (artifacts / "tableY.json").write_text(
        json.dumps({"headers": ["a", "b"], "rows": [[1, 2.5]]})
    )
    (artifacts / "profZ.json").write_text(
        json.dumps({"occupancy": [0.1, 0.2], "SL": [0.0, 0.5], "EL": [0.1, 0.9]})
    )
    # Point the script at the private dir by copying it next to them.
    script_copy = tmp_path / "summarize.py"
    script_copy.write_text(Path(SCRIPT).read_text())
    proc = subprocess.run(
        [sys.executable, str(script_copy)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert "### figX" in out
    assert "| ref | opt |" in out or "ref" in out
    assert "### tableY" in out
    assert "### profZ" in out
    assert "SL" in out


def test_dict_rows_use_their_keys_as_headers(tmp_path):
    # Tournament artifacts store one dict per row, without "headers".
    artifacts = tmp_path / "_artifacts"
    artifacts.mkdir()
    (artifacts / "extension_t_tournament.json").write_text(
        json.dumps(
            {
                "spec": {"name": "t"},
                "rows": [
                    {"selector": "tofu", "speedup": 53.125, "sl50": None},
                    {"selector": "rand", "speedup": 41.0, "sl50": 0.5},
                ],
            }
        )
    )
    script_copy = tmp_path / "summarize.py"
    script_copy.write_text(Path(SCRIPT).read_text())
    proc = subprocess.run(
        [sys.executable, str(script_copy)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.startswith("| ")]
    assert rows == [
        "| selector | speedup | sl50 |",
        "| tofu | 53.1 | None |",
        "| rand | 41 | 0.5 |",
    ]


def _pairs(headers, runs) -> str:
    return json.dumps({"note": "fixture", "headers": headers, "rows": runs})


def test_ledger_pairs_become_one_performance_table(tmp_path):
    artifacts = tmp_path / "_artifacts"
    artifacts.mkdir()
    metrics = ["setup_s", "wall_s", "sim_events_per_s", "peak_rss_mb", "request_p50_ms"]
    # The older file predates the seed column: its runs are seed 0.
    (artifacts / "pr7_ledger_pairs.json").write_text(
        _pairs(
            ["workload", "pair", "side", "failed", *metrics],
            [
                ["grid", 0, "parent", 0, 0.25, 9.0, 200000.0, 48.0, 800.0],
                ["grid", 0, "change", 0, 0.24, 7.0, 250000.0, 49.0, 700.0],
                ["grid", 1, "change", 0, 0.26, 6.0, 260000.0, 49.5, 650.0],
                ["grid", 1, "parent", 0, 0.25, 8.0, 210000.0, 48.5, 750.0],
                ["grid", 2, "parent", 0, 0.25, 8.5, 205000.0, 48.2, 760.0],
                ["grid", 2, "change", 0, 0.25, 8.7, 199000.0, 48.1, 770.0],
            ],
        )
    )
    (artifacts / "pr12_ledger_pairs.json").write_text(
        _pairs(
            ["seed", "workload", "pair", "side", "correct", *metrics],
            [
                [0, "scale", 0, "parent", True, 0.2, 10.0, 40000.0, 90.0, 10000.0],
                [0, "scale", 0, "change", True, 0.2, 8.0, 50000.0, 89.0, 8000.0],
                [5, "scale", 0, "parent", True, 0.2, 11.0, 38000.0, 90.0, 11000.0],
                [5, "scale", 0, "change", True, 0.3, 12.0, 36000.0, 91.0, 12000.0],
                # An unpaired run (interrupted batch) counts on neither side.
                [5, "scale", 1, "parent", True, 9.9, 99.0, 1.0, 999.0, 99000.0],
            ],
        )
    )
    script_copy = tmp_path / "summarize.py"
    script_copy.write_text(Path(SCRIPT).read_text())
    proc = subprocess.run(
        [sys.executable, str(script_copy)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    # One table, not one raw dump per file.
    assert out.count("### ") == 1 and "### Performance" in out
    assert "pr7_ledger_pairs" not in out and "pr12_ledger_pairs" not in out
    rows = [line for line in out.splitlines() if line.startswith("| ")]
    assert rows[0].startswith("| PR | workload | seed | pairs | `wall_s` |")
    assert rows[1:] == [
        "| 7 | `grid` | 0 | 3 | 8.5 → 7 (2/3) | 205k → 250k (2/3)"
        " | 760 → 700 (2/3) | 48.2 → 49 (1/3) | 0.25 → 0.25 (1/3) |",
        "| 12 | `scale` | 0 | 1 | 10 → 8 (1/1) | 40k → 50k (1/1)"
        " | 10k → 8000 (1/1) | 90 → 89 (1/1) | 0.2 → 0.2 (0/1) |",
        "| 12 | `scale` | 5 | 1 | 11 → 12 (0/1) | 38k → 36k (0/1)"
        " | 11k → 12k (0/1) | 90 → 91 (0/1) | 0.2 → 0.3 (0/1) |",
    ]


@pytest.mark.skipif(
    not os.path.isdir(os.path.join(REPO, "benchmarks", "_artifacts")),
    reason="no recorded artifacts yet (run pytest benchmarks/ first)",
)
def test_renders_recorded_artifacts():
    proc = subprocess.run(
        [sys.executable, SCRIPT], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "###" in proc.stdout
