"""Golden determinism of the tournament leaderboard (ISSUE 8).

The ``small`` preset (T3S, 64 ranks, 3 selectors) must produce a
byte-identical leaderboard artifact:

* across repeated runs,
* across ``jobs`` values (parallel vs serial execution),
* and on a cached rerun — which must execute **zero** new configs,
  proving every scored quantity survives the result store exactly.
"""

from __future__ import annotations

from pathlib import Path

from repro.exec.store import ResultCache
from repro.tournament import PRESETS, run_tournament


def test_small_preset_leaderboard_is_golden(tmp_path):
    spec = PRESETS["small"]
    store = ResultCache(tmp_path / "store")

    cold = run_tournament(spec, jobs=2, store=store)
    assert cold.executed == len(spec.configs()) and cold.cached == 0

    warm = run_tournament(spec, jobs=1, store=store)
    assert warm.executed == 0, "cached rerun must not simulate anything"
    assert warm.cached == len(spec.configs())

    # Byte-identity: cold/parallel vs warm/serial, JSON and markdown.
    assert cold.leaderboard_json() == warm.leaderboard_json()
    assert cold.leaderboard_markdown() == warm.leaderboard_markdown()

    # And across artifact writes.
    a = cold.write(tmp_path / "a")
    b = warm.write(tmp_path / "b")
    for pa, pb in zip(a, b):
        assert Path(pa).read_bytes() == Path(pb).read_bytes()


def test_small_preset_independent_of_store(tmp_path):
    """No store at all gives the same leaderboard bytes."""
    spec = PRESETS["small"]
    stored = run_tournament(spec, store=ResultCache(tmp_path / "s"))
    bare = run_tournament(spec, store=None)
    assert stored.leaderboard_json() == bare.leaderboard_json()
