"""Unit tests of the tournament harness (grid, scoring, artifacts)."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.core.config import WorkStealingConfig
from repro.exec.store import ArtifactStore
from repro.tournament import PRESETS, TournamentSpec, run_tournament
from repro.tournament.__main__ import main
from repro.uts.params import T3XS


SPEC = TournamentSpec(
    name="unit",
    tree="T3XS",
    nranks=16,
    selectors=("rand", "adapt-sr[0.9]"),
    steal_policies=("one", "adaptive[2]"),
)


class TestSpec:
    def test_grid_order_is_selector_major_and_stable(self):
        labels = [cfg.label() for cfg in SPEC.configs()]
        assert labels == [
            "rand/one 1/N x16 [T3XS]",
            "rand/adaptive[2] 1/N x16 [T3XS]",
            "adapt-sr[0.9]/one 1/N x16 [T3XS]",
            "adapt-sr[0.9]/adaptive[2] 1/N x16 [T3XS]",
        ]
        assert labels == [cfg.label() for cfg in SPEC.configs()]

    def test_uncalibrated_spec_runs(self):
        spec = TournamentSpec(
            name="raw", tree="T3XS", nranks=8, selectors=("rand",), calibrated=False
        )
        (row,) = run_tournament(spec).rows
        assert row["label"] == "rand/one 1/N x8 [T3XS]"

    def test_adaptive_knobs_change_fingerprints(self):
        """The adaptive parameters are physics: two runs that adapt
        differently must never share a cache slot."""
        base = WorkStealingConfig(tree=T3XS, nranks=16, selector="adapt-eps[0.1]")
        assert (
            base.fingerprint()
            != WorkStealingConfig(
                tree=T3XS, nranks=16, selector="adapt-eps[0.2]"
            ).fingerprint()
        )
        assert (
            WorkStealingConfig(
                tree=T3XS, nranks=16, steal_policy="adaptive[2]"
            ).fingerprint()
            != WorkStealingConfig(
                tree=T3XS, nranks=16, steal_policy="adaptive[3]"
            ).fingerprint()
        )

    def test_trace_knob_not_in_fingerprint_but_activity_trace_is(self):
        # Tournament configs rely on event_trace being free (excluded)
        # while trace=True is part of the physics fingerprint.
        a = WorkStealingConfig(tree=T3XS, nranks=16, trace=True)
        assert (
            a.fingerprint()
            == WorkStealingConfig(
                tree=T3XS, nranks=16, trace=True, event_trace=True
            ).fingerprint()
        )

    def test_presets_are_well_formed(self):
        for name, spec in PRESETS.items():
            assert spec.name == name
            assert spec.selectors
            configs = spec.configs()
            assert len(configs) == (
                len(spec.selectors)
                * len(spec.steal_policies)
                * len(spec.allocations)
                * len(spec.protocols)
            )
            assert all(cfg.trace for cfg in configs)
            assert not any(cfg.event_trace for cfg in configs)


class TestRun:
    @pytest.fixture(scope="class")
    def tournament(self):
        return run_tournament(SPEC)

    def test_rows_ranked_by_makespan(self, tournament):
        spans = [row["makespan"] for row in tournament.rows]
        assert spans == sorted(spans)
        assert tournament.winner is tournament.rows[0]
        assert len(tournament.rows) == 4
        assert tournament.executed == 4 and tournament.cached == 0

    def test_row_fields_complete(self, tournament):
        for row in tournament.rows:
            assert row["tree"] == "T3XS" and row["nranks"] == 16
            assert row["makespan"] > 0
            assert 0 < row["efficiency"] <= 1
            assert 0 <= row["steal_success_rate"] <= 1
            assert row["failed_steals"] >= 0

    def test_row_for(self, tournament):
        row = tournament.row_for("rand", "one")
        assert row["selector"] == "rand" and row["steal_policy"] == "one"
        with pytest.raises(KeyError):
            tournament.row_for("no-such-selector")

    def test_artifacts(self, tournament, tmp_path):
        paths = tournament.write(tmp_path)
        assert [os.path.basename(p) for p in paths] == [
            "tournament_unit.json",
            "tournament_unit.md",
        ]
        payload = json.loads(Path(paths[0]).read_text())
        assert payload["spec"]["name"] == "unit"
        assert len(payload["rows"]) == 4
        # Run bookkeeping must NOT leak into the deterministic artifact.
        assert "executed" not in payload and "cached" not in payload
        md = Path(paths[1]).read_text()
        assert md.count("\n| ") == 1 + 4  # header + one line per row
        assert "adapt-sr[0.9]" in md


class TestStoreContract:
    def test_capture_store_subclass_sees_every_result(self, tmp_path, monkeypatch):
        """What the frozen ledger's ``_CaptureStore`` relies on: a
        subclass built on a root it never touches, overriding only
        ``get`` and ``put``, is handed to the sweep as it is."""
        monkeypatch.chdir(tmp_path)

        class Capture(ArtifactStore):
            def __init__(self):
                super().__init__(root="unused")
                self.results = []

            def get(self, fingerprint):
                return None

            def put(self, fingerprint, result, config=None, elapsed=None):
                self.results.append(result)
                return self.path_for(fingerprint)

        store, ticks = Capture(), []
        tournament = run_tournament(SPEC, jobs=1, store=store, progress=ticks.append)
        labels = [cfg.label() for cfg in SPEC.configs()]
        assert sorted(r.label for r in store.results) == sorted(labels)
        assert sorted(t.label for t in ticks) == sorted(labels)
        assert tournament.executed == len(labels) and tournament.cached == 0
        assert not (tmp_path / "unused").exists()


class TestProtocolAxis:
    SPEC = TournamentSpec(
        name="proto-unit",
        tree="T3XS",
        nranks=16,
        selectors=("rand",),
        protocols=("steal", "forward[2]", "regions[4]"),
    )

    def test_protocol_axis_rows(self):
        tournament = run_tournament(self.SPEC)
        assert len(tournament.rows) == 3
        assert {row["protocol"] for row in tournament.rows} == {
            "steal",
            "fwd2",
            "reg4",
        }
        # The protocol tag is part of the label vocabulary too.
        tagged = [r for r in tournament.rows if r["protocol"] != "steal"]
        assert all("+" + r["protocol"] in r["label"] for r in tagged)

    def test_bad_protocol_spec_fails_fast(self):
        from repro.errors import RegistryError

        spec = TournamentSpec(
            name="bad",
            tree="T3XS",
            nranks=16,
            selectors=("rand",),
            protocols=("warp[2]",),
        )
        with pytest.raises(RegistryError):
            spec.configs()


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out
        # Every grid axis counts, the protocol one included.
        assert "protocol: T3L x64, 12 configs" in out
        assert f"full: T3M x64, {len(PRESETS['full'].configs())} configs" in out

    def test_smoke_run_and_require_cached(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        out = str(tmp_path / "art")
        args = ["--preset", "smoke", "--store", store, "--out", out]
        # Cold: simulates, so --require-cached must fail...
        assert main(args + ["--require-cached"]) == 1
        # ...and the warm rerun must be fully store-served.
        assert main(args + ["--require-cached"]) == 0
        assert os.path.exists(os.path.join(out, "tournament_smoke.json"))

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_bad_jobs_rejected(self, jobs, tmp_path, capsys):
        out = tmp_path / "art"
        args = ["--preset", "smoke", "--no-cache", "--out", str(out)]
        assert main(args + ["--jobs", jobs]) == 2
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()
