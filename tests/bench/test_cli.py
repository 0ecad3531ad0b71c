"""Tests for the `python -m repro.bench` experiment CLI."""

from __future__ import annotations

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.bench", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=300,
    )


def test_list():
    proc = _cli("--list")
    assert proc.returncode == 0
    for key in ("table1", "fig02", "fig08", "fig16"):
        assert key in proc.stdout


def test_no_args_lists():
    proc = _cli()
    assert proc.returncode == 0
    assert "fig11" in proc.stdout


def test_unknown_experiment():
    proc = _cli("fig99")
    assert proc.returncode == 2
    assert "unknown experiment" in proc.stderr


def test_run_table1():
    proc = _cli("table1")
    assert proc.returncode == 0
    assert "T3XXL" in proc.stdout
    assert "2793220501" in proc.stdout


def test_run_fig08():
    proc = _cli("fig08")
    assert proc.returncode == 0


def test_bad_jobs_rejected():
    proc = _cli("table1", "--jobs", "0")
    assert proc.returncode == 2
    assert "--jobs" in proc.stderr


def test_jobs_flag_accepted():
    proc = _cli("table1", "--jobs", "2", "--no-cache")
    assert proc.returncode == 0
    assert "T3XXL" in proc.stdout
