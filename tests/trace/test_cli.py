"""Tests for ``python -m repro.trace`` and its presets."""

from __future__ import annotations

import json

import pytest

from repro.trace.__main__ import main
from repro.trace.chrome import validate_chrome_trace
from repro.trace.presets import TRACE_PRESETS, available_presets, preset_config
from repro.errors import ConfigurationError


class TestPresets:
    def test_presets_force_tracing_on(self):
        cfg = preset_config("smoke")
        assert cfg.trace is True
        assert cfg.event_trace is True

    def test_overrides_forwarded(self):
        cfg = preset_config("smoke", nranks=16, seed=7)
        assert cfg.nranks == 16
        assert cfg.seed == 7

    def test_unknown_preset_raises(self):
        with pytest.raises(ConfigurationError, match="unknown trace preset"):
            preset_config("fig99")

    def test_fig02_preset_matches_paper_band(self):
        cfg = preset_config("fig02")
        assert cfg.tree.name == "T3M"
        assert cfg.nranks == 32

    def test_available_matches_table(self):
        assert available_presets() == list(TRACE_PRESETS)


class TestCli:
    def test_smoke_run_emits_valid_trace(self, tmp_path, capsys):
        out = tmp_path / "smoke.trace.json"
        rc = main(["--config", "smoke", "--out", str(out), "--check"])
        assert rc == 0
        data = json.loads(out.read_text())
        assert validate_chrome_trace(data) > 0
        captured = capsys.readouterr()
        assert "steal requests:" in captured.out
        assert "validation ok" in captured.err

    def test_list_exits_zero(self, capsys):
        assert main(["--list"]) == 0
        assert "fig02" in capsys.readouterr().out

    def test_unknown_preset_exits_two(self, capsys):
        assert main(["--config", "nope"]) == 2
        assert "unknown trace preset" in capsys.readouterr().err

