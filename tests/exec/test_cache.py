"""Tests for the on-disk result cache."""

from __future__ import annotations

import json

import pytest

from repro._version import __version__
from repro.core.config import WorkStealingConfig
from repro.exec.store import ArtifactStore
from repro.exec.pool import run_many
from repro.uts.params import T3XS


@pytest.fixture()
def cfg() -> WorkStealingConfig:
    return WorkStealingConfig(tree=T3XS, nranks=8)


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path, cfg):
        cache = ArtifactStore(tmp_path)
        result = run_many([cfg])[0]
        fp = cfg.fingerprint()
        assert cache.get(fp) is None
        cache.put(fp, result, config=cfg.to_dict(), elapsed=1.25)
        hit = cache.get(fp)
        assert hit is not None
        assert hit.to_json() == result.to_json()
        assert len(list(cache.dir.glob("*.json"))) == 1

    def test_entry_layout(self, tmp_path, cfg):
        cache = ArtifactStore(tmp_path)
        result = run_many([cfg])[0]
        fp = cfg.fingerprint()
        cache.put(fp, result, config=cfg.to_dict(), elapsed=0.5)
        path = cache.path_for(fp)
        assert path.parent == tmp_path / __version__
        entry = json.loads(path.read_text())
        assert entry["version"] == __version__
        assert entry["fingerprint"] == fp
        assert entry["config"]["nranks"] == 8

    def test_version_bump_invalidates(self, tmp_path, cfg):
        store = ArtifactStore(tmp_path)
        result = run_many([cfg])[0]
        fp = cfg.fingerprint()
        path = store.put(fp, result)
        # An entry another package version wrote, planted where this
        # version looks: a miss, for a warm store object and a new one.
        entry = json.loads(path.read_text())
        path.write_text(json.dumps({**entry, "version": "0.0.0-other"}))
        assert store.get(fp) is None
        assert ArtifactStore(tmp_path).get(fp) is None
        path.write_text(json.dumps(entry))
        assert ArtifactStore(tmp_path).get(fp) is not None

    def test_corrupt_entry_is_a_miss(self, tmp_path, cfg):
        cache = ArtifactStore(tmp_path)
        fp = cfg.fingerprint()
        cache.put(fp, run_many([cfg])[0])
        cache.path_for(fp).write_text("{corrupt")
        assert cache.get(fp) is None


class TestCorruptEntries:
    """Whatever bytes an entry holds, reading it is a miss, and a sweep
    recomputes the result and overwrites the entry."""

    @pytest.mark.parametrize(
        "payload", [b"\xff", b"[" * 200_000], ids=["bad-utf8", "deep-nesting"]
    )
    def test_corrupt_bytes_are_a_miss_and_recomputed(self, tmp_path, cfg, payload):
        store = ArtifactStore(tmp_path)
        fp = cfg.fingerprint()
        good = run_many([cfg], store=store)[0]
        store.path_for(fp).write_bytes(payload)
        assert store.get(fp) is None
        [again] = run_many([cfg], store=store, return_exceptions=True)
        assert again.to_json() == good.to_json()
        assert store.get(fp).to_json() == good.to_json()

    def test_every_truncation_is_a_miss(self, tmp_path):
        cfg = WorkStealingConfig(tree=T3XS, nranks=2)
        store = ArtifactStore(tmp_path)
        fp = cfg.fingerprint()
        run_many([cfg], store=store)
        path = store.path_for(fp)
        entry = path.read_bytes()
        for end in range(len(entry)):
            path.write_bytes(entry[:end])
            assert store.get(fp) is None, f"prefix of {end} bytes read as a hit"
        run_many([cfg], store=store)
        assert store.get(fp) is not None


class TestRunManyCacheIntegration:
    def test_second_run_hits_cache_without_simulating(self, tmp_path, cfg, monkeypatch):
        cache = ArtifactStore(tmp_path)
        first = run_many([cfg], store=cache)[0]
        assert len(list(cache.dir.glob("*.json"))) == 1

        def _boom(payload):
            raise AssertionError("simulator invoked on a warm cache")

        monkeypatch.setattr("repro.exec.pool._execute", _boom)
        second = run_many([cfg], store=cache)[0]
        assert second.to_json() == first.to_json()

    def test_cache_hit_reports_cached_progress(self, tmp_path, cfg):
        cache = ArtifactStore(tmp_path)
        run_many([cfg], store=cache)
        ticks = []
        run_many([cfg], store=cache, progress=ticks.append)
        assert len(ticks) == 1
        assert ticks[0].cached and ticks[0].elapsed == 0.0

    def test_cache_warms_across_sweep(self, tmp_path):
        configs = [
            WorkStealingConfig(tree=T3XS, nranks=8, seed=s, chunk_size=c)
            for s in range(4)
            for c in (10, 20)
        ]
        assert len(configs) == 8
        cache = ArtifactStore(tmp_path)
        cold = run_many(configs, jobs=2, store=cache)
        assert len(list(cache.dir.glob("*.json"))) == 8
        ticks = []
        warm = run_many(configs, jobs=2, store=cache, progress=ticks.append)
        assert all(t.cached for t in ticks)
        for a, b in zip(cold, warm):
            assert a.to_json() == b.to_json()

    def test_cache_env_override(self, tmp_path, cfg, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        cache = ArtifactStore()
        assert str(cache.dir).startswith(str(tmp_path / "envcache"))
        run_many([cfg], store=True)
        assert len(list(ArtifactStore().dir.glob("*.json"))) == 1
