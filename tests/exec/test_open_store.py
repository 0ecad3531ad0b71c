"""``store=`` is read in one place, and every spelling gets the one store."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.config import WorkStealingConfig
from repro.errors import ConfigurationError
from repro.exec.pool import run_many
from repro.exec.store import ArtifactStore, open_store
from repro.uts.params import T3XS


class TestOpenStore:
    def test_spellings(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert open_store(True).root == tmp_path / "env"
        assert open_store(str(tmp_path / "s")).root == tmp_path / "s"
        assert open_store(tmp_path / "p").root == tmp_path / "p"
        store = ArtifactStore(tmp_path / "own", max_bytes=10)
        assert open_store(store) is store
        assert open_store(None) is None and open_store(False) is None
        with pytest.raises(ConfigurationError):
            open_store(3.14)
        assert list(tmp_path.iterdir()) == []  # opening creates nothing


@pytest.mark.parametrize("spelling", ["path", "str", "true", "instance"])
def test_event_trace_run_lands_its_result(spelling, tmp_path, monkeypatch):
    """Whatever opens the store, a traced run's result lands in it alone:
    the event stream does not survive the result serialization."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    store = {
        "path": Path(tmp_path),
        "str": str(tmp_path),
        "true": True,
        "instance": ArtifactStore(tmp_path),
    }[spelling]
    cfg = WorkStealingConfig(tree=T3XS, nranks=4, event_trace=True)
    (result,) = run_many([cfg], store=store)
    assert result.events is None
    on_disk = ArtifactStore(tmp_path)
    assert on_disk.get(cfg.fingerprint()).to_json() == result.to_json()
    assert [p.name for p in on_disk.dir.iterdir()] == [f"{cfg.fingerprint()}.json"]


def test_sweep_overflows_the_lru_budget(tmp_path):
    """A budget of about two entries under an eight-config sweep."""
    configs = [WorkStealingConfig(tree=T3XS, nranks=4, seed=s) for s in range(8)]
    probe = ArtifactStore(tmp_path / "probe")
    run_many(configs[:1], store=probe)
    store = ArtifactStore(tmp_path / "s", max_bytes=int(2.5 * probe.total_bytes()))

    first = run_many(configs, jobs=2, store=store)
    assert [r.label for r in first] == [c.label() for c in configs]
    assert 0 < store.total_bytes() <= store.max_bytes
    assert len(list(store.dir.glob("*.json"))) <= 3  # five or more evicted

    again = run_many(configs, jobs=2, store=store)
    assert [r.to_json() for r in again] == [r.to_json() for r in first]
    assert store.total_bytes() <= store.max_bytes
