"""Tests for the store's LRU eviction and accounting."""

from __future__ import annotations

import os

import pytest

from repro.core.config import WorkStealingConfig
from repro.errors import ConfigurationError
from repro.exec.store import ArtifactStore, ResultCache
from repro.uts.params import T3XS
from repro.ws.runner import run_uts


@pytest.fixture(scope="module")
def result():
    return run_uts(WorkStealingConfig(tree=T3XS, nranks=4, seed=0))


def _age(store: ArtifactStore, fingerprint: str, seconds: float) -> None:
    """Backdate an entry's last access."""
    path = store.path_for(fingerprint)
    st = path.stat()
    os.utime(path, (st.st_atime - seconds, st.st_mtime - seconds))


class TestLRUEviction:
    def test_unbounded_store_never_evicts(self, tmp_path, result):
        store = ArtifactStore(tmp_path)
        for i in range(5):
            store.put(f"fp{i}", result)
        assert store.evict() == []
        assert store.stats().entries == 5

    def test_oldest_entries_evict_first(self, tmp_path, result):
        store = ArtifactStore(tmp_path)
        for i in range(4):
            store.put(f"fp{i}", result)
            _age(store, f"fp{i}", seconds=100 - i)
        entry_bytes = store.total_bytes() // 4
        store.max_bytes = entry_bytes * 2 + entry_bytes // 2
        evicted = store.evict()
        assert evicted == ["fp0", "fp1"]
        assert store.get("fp0") is None
        assert store.get("fp3") is not None

    def test_read_refreshes_recency(self, tmp_path, result):
        store = ArtifactStore(tmp_path)
        for i in range(3):
            store.put(f"fp{i}", result)
            _age(store, f"fp{i}", seconds=100 - i)
        assert store.get("fp0") is not None  # fp0 becomes the newest
        store.max_bytes = int(store.total_bytes() / 3 * 2.5)  # room for 2
        evicted = store.evict()
        assert evicted == ["fp1"]  # oldest unread entry; fp0 was refreshed

    def test_put_triggers_eviction_under_budget(self, tmp_path, result):
        store = ArtifactStore(tmp_path)
        store.put("fp0", result)
        store.max_bytes = store.total_bytes() + 10  # room for ~1 entry
        _age(store, "fp0", seconds=100)
        store.put("fp1", result)  # pushes past the budget
        assert store.get("fp0") is None
        assert store.get("fp1") is not None
        assert store.stats().evicted == 1

    def test_rejects_bad_budget(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ArtifactStore(tmp_path, max_bytes=0)


class TestCompatibility:
    def test_reads_entries_written_by_plain_cache(self, tmp_path, result):
        assert ResultCache is ArtifactStore
        cache = ResultCache(tmp_path)
        cache.put("fp0", result)
        store = ArtifactStore(tmp_path)
        hit = store.get("fp0")
        assert hit is not None
        assert hit.to_json() == result.to_json()

    def test_plain_cache_reads_store_entries(self, tmp_path, result):
        assert ResultCache is ArtifactStore
        store = ArtifactStore(tmp_path)
        store.put("fp0", result)
        assert ResultCache(tmp_path).get("fp0") is not None

    def test_stats_shape(self, tmp_path, result):
        store = ArtifactStore(tmp_path, max_bytes=10**9)
        store.put("fp0", result)
        stats = store.stats()
        assert stats.entries == 1
        assert stats.total_bytes == store.total_bytes() > 0
        assert stats.max_bytes == 10**9
        assert stats.evicted == 0
