"""A RunResult is an immutable value.

One result object reaches several holders: every memo hit of a store
object, every deduplicated slot of a ``run_many`` batch, every handle
of a service join, every caller of the bench harness's memo.  None of
them may change what the others see: fields cannot be assigned and
every array (per-rank counts, the activity trace's times and states)
is read-only, whichever way the object was made.
"""

from __future__ import annotations

import hashlib
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

import repro.ws.results as results_mod
from repro.core.config import WorkStealingConfig
from repro.exec.pool import run_many
from repro.exec.store import ArtifactStore
from repro.sim.cluster import Cluster
from repro.uts.params import T3XS
from repro.ws import run_uts
from repro.ws.results import RunResult
from tests.ws.test_result_bytes import PINS, PROBES

_CFG = WorkStealingConfig(tree=T3XS, nranks=4, trace=True)


def _from_outcome(tmp_path):
    return RunResult.from_outcome(Cluster(_CFG).run())


def _from_json(tmp_path):
    return RunResult.from_json(run_uts(_CFG).to_json())


def _store_hit(tmp_path):
    store = ArtifactStore(tmp_path)
    store.put("fp0", run_uts(_CFG))
    cold = store.get("fp0")
    hit = store.get("fp0")
    assert hit is cold
    return hit


def _run_many_landing(tmp_path):
    # Two pending configs, so the batch really goes to a pool of two.
    return run_many([_CFG, _CFG.replace(seed=1)], jobs=2)[0]


SOURCES = {
    "from_outcome": _from_outcome,
    "from_json": _from_json,
    "store-hit": _store_hit,
    "run_many-jobs2": _run_many_landing,
}


@pytest.fixture(scope="module")
def result():
    return run_uts(_CFG)


@pytest.mark.parametrize("name", [f.name for f in fields(RunResult)])
def test_assigning_a_field_raises(result, name):
    with pytest.raises(FrozenInstanceError):
        setattr(result, name, getattr(result, name))


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_every_array_is_read_only(tmp_path, source):
    r = SOURCES[source](tmp_path)
    assert r.trace is not None and isinstance(r.trace.transitions, tuple)
    arrays = [r.per_rank_nodes, r.per_rank_search_time]
    for times, states in r.trace.transitions:
        arrays += [times, states]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = array
    with pytest.raises(ValueError, match="read-only"):
        r.per_rank_nodes[0] += 1
    assert r.to_json() == run_uts(_CFG).to_json()


def test_equality_is_identity(result):
    again = RunResult.from_json(result.to_json())
    assert result == result
    assert result != again and again.to_json() == result.to_json()


def test_latency_profile_is_computed_once_on_a_shared_object(monkeypatch):
    calls = []
    original = results_mod.latency_profile

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(results_mod, "latency_profile", counting)
    shared = run_many([_CFG, _CFG.replace(), _CFG])
    assert shared[0] is shared[1] is shared[2]
    profiles = [r.latency_profile() for r in shared]
    assert len(calls) == 1
    assert profiles[0] is profiles[1] is profiles[2]
    # An explicit occupancy grid is not the memo and is computed anew.
    shared[0].latency_profile(np.array([0.5]))
    assert len(calls) == 2 and shared[1].latency_profile() is profiles[0]


@pytest.mark.parametrize("name", ["trace-skew", "chunk3-poll13"])
def test_bytes_are_the_pinned_ones_whichever_way_the_result_came(tmp_path, name):
    # A round trip through the JSON and through a store (cold read, then
    # a memo hit) serialises to the bytes tests/ws/test_result_bytes.py
    # pins.
    direct = run_uts(**PROBES[name])
    store = ArtifactStore(tmp_path)
    store.put("fp0", direct)
    for r in (
        direct,
        RunResult.from_json(direct.to_json()),
        store.get("fp0"),
        store.get("fp0"),
    ):
        assert hashlib.sha256(r.to_json().encode()).hexdigest() == PINS[name]
