"""A config's identity is computed once and shared read-only downstream.

:func:`repro.exec.pool.resolve` hands every consumer of a config the
config's own ``payload`` dict; these tests pin that it is computed once
per config object and that nothing a run, a store or the service does
to it changes it.
"""

from __future__ import annotations

import asyncio

from repro.core.config import WorkStealingConfig, fingerprint_dict
from repro.exec.pool import resolve, run_many
from repro.exec.store import ArtifactStore
from repro.service import SimulationService
from repro.uts.params import T3XS


def _configs(n: int = 3) -> list[WorkStealingConfig]:
    return [
        WorkStealingConfig(tree=T3XS, nranks=4, seed=seed, selector=selector)
        for seed, selector in zip(range(n), ("reference", "rand", "tofu"))
    ]


def _assert_payloads_intact(configs) -> None:
    for config in configs:
        fresh = config.to_dict()
        assert config.payload == fresh
        assert config.fingerprint() == fingerprint_dict(fresh)


def test_resolving_one_config_twice_serializes_it_once(monkeypatch):
    calls = []
    to_dict = WorkStealingConfig.to_dict

    def counting(self):
        calls.append(self)
        return to_dict(self)

    monkeypatch.setattr(WorkStealingConfig, "to_dict", counting)
    config = WorkStealingConfig(tree=T3XS, nranks=4)
    [(same, first, fp)] = resolve([config])
    [(_, second, fp_again)] = resolve([config])
    assert calls == [config]
    assert same is config
    assert second is first is config.payload
    assert fp_again == fp == config.fingerprint()


def test_dict_entries_are_rebuilt_on_every_resolve():
    data = WorkStealingConfig(tree=T3XS, nranks=4).to_dict()
    [(a, payload_a, fp_a)] = resolve([data])
    [(b, payload_b, fp_b)] = resolve([data])
    assert a is not b and payload_a is not payload_b
    assert payload_a == payload_b == data and fp_a == fp_b


def test_shared_payload_survives_runs_and_sweeps(tmp_path):
    configs = _configs()
    store = ArtifactStore(tmp_path / "runs")
    cold = run_many(configs, store=store)  # serial: the in-process worker
    warm = run_many(configs, store=store)
    assert [r.to_json() for r in warm] == [r.to_json() for r in cold]
    _assert_payloads_intact(configs)

    async def sweep(service):
        return await (await service.submit(configs)).results()

    async def cold_then_warm():
        async with SimulationService(1, tmp_path / "service") as service:
            first = await sweep(service)
            second = await sweep(service)
            return first, second, service.stats()

    first, second, stats = asyncio.run(cold_then_warm())
    assert stats.executed == len(configs) and stats.cache_hits == len(configs)
    assert [r.to_json() for r in first] == [r.to_json() for r in cold]
    assert [r.to_json() for r in second] == [r.to_json() for r in cold]
    _assert_payloads_intact(configs)
