"""Tests for the store's LRU eviction, accounting and in-memory memo."""

from __future__ import annotations

import json
import os
from dataclasses import FrozenInstanceError, asdict
from types import SimpleNamespace

import pytest

import repro.exec.store as store_mod
from repro.core.config import WorkStealingConfig
from repro.errors import ConfigurationError
from repro.exec.store import ArtifactStore
from repro.uts.params import T3XS, TREES
from repro.ws.results import RunResult
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
        assert len(list(store.dir.glob("*.json"))) == 5

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
        assert [p.stem for p in store.dir.glob("*.json")] == ["fp1"]

    def test_rejects_bad_budget(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ArtifactStore(tmp_path, max_bytes=0)


class TestCompatibility:
    """Two store objects on one root read each other's entries."""

    def test_reads_entries_written_by_plain_cache(self, tmp_path, result):
        ArtifactStore(tmp_path).put("fp0", result)
        hit = ArtifactStore(tmp_path).get("fp0")
        assert hit is not None
        assert hit.to_json() == result.to_json()

    def test_plain_cache_reads_store_entries(self, tmp_path, result):
        store = ArtifactStore(tmp_path)
        store.put("fp0", result)
        assert ArtifactStore(tmp_path).get("fp0") is not None


@pytest.fixture
def parses(monkeypatch):
    """Count the entry files the store parses."""
    calls = []

    def loads(raw):
        calls.append(len(raw))
        return json.loads(raw)

    monkeypatch.setattr(
        store_mod, "json", SimpleNamespace(loads=loads, dumps=json.dumps)
    )
    return calls


@pytest.fixture
def decodes(monkeypatch):
    """Count the results the store decodes from their dicts."""
    calls = []
    original = RunResult.from_dict.__func__

    def from_dict(cls, data):
        calls.append(data["label"])
        return original(cls, data)

    monkeypatch.setattr(RunResult, "from_dict", classmethod(from_dict))
    return calls


class TestMemo:
    def test_a_warm_hit_does_not_parse(self, tmp_path, result, parses):
        store = ArtifactStore(tmp_path)
        store.put("fp0", result)
        hits = [store.get("fp0") for _ in range(3)]
        assert len(parses) == 1
        assert all(hit.to_json() == result.to_json() for hit in hits)

    def test_a_warm_hit_is_the_kept_object(self, tmp_path, result, parses, decodes):
        store = ArtifactStore(tmp_path)
        store.put("fp0", result)
        hits = [store.get("fp0") for _ in range(3)]
        assert hits[0] is hits[1] is hits[2]
        assert len(parses) == len(decodes) == 1  # the cold read only
        # Another store object on the same root decodes its own.
        other = ArtifactStore(tmp_path).get("fp0")
        assert other is not hits[0] and len(decodes) == 2
        assert other.to_json() == hits[0].to_json()

    def test_a_hit_cannot_be_mutated_and_the_next_hit_has_the_cold_bytes(
        self, tmp_path, result, parses
    ):
        store = ArtifactStore(tmp_path)
        store.put("fp0", result)
        cold = store.get("fp0").to_json()
        hit = store.get("fp0")
        with pytest.raises(ValueError, match="read-only"):
            hit.per_rank_nodes[0] += 1000
        with pytest.raises(ValueError, match="read-only"):
            hit.per_rank_search_time[:] = -1.0
        with pytest.raises(FrozenInstanceError):
            hit.sessions.count = -1
        with pytest.raises(FrozenInstanceError):
            hit.total_nodes = 0
        assert len(parses) == 1  # every hit after the first came from the memo
        assert store.get("fp0").to_json() == cold == result.to_json()

    def test_another_stores_overwrite_is_read(self, tmp_path, result):
        other = run_uts(WorkStealingConfig(tree=T3XS, nranks=8))
        assert other.to_json() != result.to_json()
        store = ArtifactStore(tmp_path)
        store.put("fp0", result)
        store.get("fp0")
        ArtifactStore(tmp_path).put("fp0", other)
        assert store.get("fp0").to_json() == other.to_json()

    def test_another_stores_eviction_is_a_miss(self, tmp_path, result):
        store = ArtifactStore(tmp_path)
        store.put("fp0", result)
        assert store.get("fp0") is not None
        _age(store, "fp0", seconds=100)
        budget = store.total_bytes() + 10  # room for one entry
        ArtifactStore(tmp_path, max_bytes=budget).put("fp1", result)
        assert not store.path_for("fp0").exists()
        assert store.get("fp0") is None

    @pytest.mark.parametrize("same_size", [True, False], ids=["same-size", "short"])
    def test_garbage_written_in_place_is_a_miss(self, tmp_path, result, same_size):
        store = ArtifactStore(tmp_path)
        store.put("fp0", result)
        store.get("fp0")
        assert store.get("fp0") is not None  # a memo hit
        path = store.path_for("fp0")
        size = path.stat().st_size
        with open(path, "r+b") as fh:  # same inode
            fh.write(b"x" * size if same_size else b"{corrupt")
            fh.truncate()
        assert store.get("fp0") is None

    def test_memo_bytes_stay_within_the_bound(self, tmp_path, result, monkeypatch):
        store = ArtifactStore(tmp_path)
        for i in range(6):
            store.put(f"fp{i}", result)
        size = store.path_for("fp0").stat().st_size
        bound = size * 5 // 2
        monkeypatch.setattr(store_mod, "_MEMO_BYTES", bound)
        for i in range(6):
            assert store.get(f"fp{i}").to_json() == result.to_json()
        assert store._memo_bytes <= bound
        assert list(store._memo) == ["fp4", "fp5"]  # the most recent two
        assert store._memo_bytes == sum(sig[1] for sig, _ in store._memo.values())

    def test_evict_and_put_drop_memo_entries(self, tmp_path, result):
        store = ArtifactStore(tmp_path)
        for i in range(3):
            store.put(f"fp{i}", result)
            store.get(f"fp{i}")
            _age(store, f"fp{i}", seconds=100 - i)
        store.put("fp2", result)
        store.max_bytes = store.total_bytes() // 3 + 10
        assert store.evict() == ["fp0", "fp1"]
        assert not store._memo and store._memo_bytes == 0


@pytest.mark.parametrize("name", sorted(TREES))
def test_config_tree_dict_is_asdict(name):
    tree = TREES[name]
    assert WorkStealingConfig(tree=tree, nranks=2).to_dict()["tree"] == asdict(tree)
